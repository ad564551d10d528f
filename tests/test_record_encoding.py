"""Record-at-a-time JSON reports and decomposition gaps one dual at a time.

The JSON writer encodes one record's dict at a time and still writes the
bytes of json.dumps(report.as_dict(), sort_keys=True, indent=2) plus a
newline. A record JSON would encode as something else is rejected before the
file is opened. A NaN aggregated residual reaches max_residual. The
decomposition residuals come from gaps built one dual at a time, with the
bits of the stacked construction M^{-1} - (T_{Psi~} diag(1/m) + op*) U_{Phi^d}.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from framemult import (
    DEFAULT_TOL,
    ExperimentConfig,
    adjoint,
    build,
    canonical_dual,
    gamma_of,
    invert,
    random_frame,
    random_symbol,
    reciprocal,
    riesz_basis,
    run_suite,
    sample_duals,
    save_report,
    theta_of,
)
from framemult import suites
from framemult.representations import _decomposition_residuals
from framemult.serialize import report_to_json
from framemult.suites import GENERATOR_NAMES, _Measured


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


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_all_suite_json_equals_json_dumps_of_as_dict(tmp_path, generator):
    _assert_json_bytes(_report(0, 12, generator), tmp_path / "r.json")


def test_one_trial_report_json_equals_json_dumps_of_as_dict(tmp_path):
    report = _report(1608, 1)
    assert len(report.records) == len(suites.SUITE_NAMES)
    _assert_json_bytes(report, tmp_path / "r.json")


def test_caught_error_records_and_an_escaped_note_encode_as_json_dumps(tmp_path):
    report = _report(0, 4, "riesz")
    caught = [r for r in report.records if r.note]
    assert caught and all(not r.residuals and not r.booleans for r in caught)
    note = 'a "quoted" \\ back\\slash\nnew line, ünïcødé ✓ and 𝔽'
    records = list(report.records)
    records[0] = replace(records[0], residuals={}, booleans={}, verdict="fail", note=note)
    edited = replace(report, records=tuple(records))
    _assert_json_bytes(edited, tmp_path / "r.json")
    assert json.loads(report_to_json(edited))["records"][0]["note"] == note


def test_save_report_peak_stays_below_a_quarter_of_the_text(tmp_path):
    report = _report(0, 100)
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
    assert peak < 0.25 * text_bytes, f"peak {peak} B for {text_bytes} B of text"


@pytest.mark.parametrize(
    "field, value",
    [
        ("booleans", {"x": np.bool_(True)}),
        ("residuals", {"direct": 1.0 + 2.0j}),
        ("residuals", {"direct": "0.5"}),
        ("note", b"bytes"),
    ],
    ids=["numpy-bool", "complex-residual", "str-residual", "bytes-note"],
)
def test_rejected_json_record_leaves_an_existing_file_untouched(tmp_path, field, value):
    report = _report(0, 3, suite="per1")
    bad = replace(report.records[-1], **{field: value})
    report = replace(report, records=(*report.records[:-1], bad))
    path = tmp_path / "report.json"
    before = b"an earlier report\n\x00\xff"
    path.write_bytes(before)
    with pytest.raises(ValueError):
        save_report(report, path, "json")
    assert path.read_bytes() == before
    with pytest.raises(ValueError):
        report_to_json(report)


@pytest.mark.parametrize("order", [(math.nan, 1.0), (1.0, math.nan)], ids=["nan-first", "nan-last"])
def test_nan_aggregated_residual_reaches_max_residual(monkeypatch, order):
    def fake_thm1(cfg, trial, d, n):
        return _Measured(n, {"direct": order[trial], "achieved_mu": 5.0}, {}, ok=True)

    monkeypatch.setitem(suites._TRIAL_BODIES, "thm1", fake_thm1)
    report = run_suite(ExperimentConfig(suite="thm1", trials=2))
    assert math.isnan(report.max_residual)


def test_max_residual_is_the_largest_aggregated_residual(monkeypatch):
    def fake_thm1(cfg, trial, d, n):
        return _Measured(n, {"direct": (0.25, 3.0)[trial], "achieved_mu": 5.0}, {}, ok=True)

    monkeypatch.setitem(suites._TRIAL_BODIES, "thm1", fake_thm1)
    assert run_suite(ExperimentConfig(suite="thm1", trials=2)).max_residual == 3.0


# ------------------------------------------------------------ decomposition gaps

FRAME_PAIRS = {
    "4x9": lambda: (random_frame(4, 9, (311, 0)), random_frame(4, 9, (311, 1))),
    "8x17": lambda: (random_frame(8, 17, (311, 2)), random_frame(8, 17, (311, 3))),
    "riesz3": lambda: (riesz_basis(3, (311, 4)), riesz_basis(3, (311, 5))),
}


def _invertible(name):
    phi, psi = FRAME_PAIRS[name]()
    for attempt in range(20):
        mult = build(random_symbol(phi.count, 0.5, 2.0, (311, 6, attempt)), phi, psi)
        if mult.inv_diag.invertible:
            return mult
    raise AssertionError(f"no invertible multiplier for {name}")


def _stacked_residuals(mult, kind, op, duals):
    """The stacked construction, in the Gamma form of mult, or of its adjoint for Theta."""
    on = mult if kind == "Gamma" else adjoint(mult)
    inv_m = reciprocal(on.symbol).values
    tilde = canonical_dual(on.right).frame
    left = tilde.synth * inv_m[np.newaxis, :] + op.conj().T
    stack = np.stack([dual.frame.synth for dual in duals])
    return np.linalg.svd(invert(on) - left @ stack.conj().swapaxes(-1, -2), compute_uv=False)[..., 0]


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
@pytest.mark.parametrize("rep_of", [gamma_of, theta_of], ids=["gamma", "theta"])
def test_gaps_one_dual_at_a_time_match_the_stacked_construction_bit_for_bit(name, rep_of):
    mult = _invertible(name)
    rep = rep_of(mult)
    probe = rep.op + np.full(rep.op.shape, 1e-9 + 2e-9j)
    frame = mult.left if rep.kind == "Gamma" else mult.right
    on = mult if rep.kind == "Gamma" else adjoint(mult)
    duals = sample_duals(frame, rng=np.random.default_rng(311))
    for op in (rep.op, probe):
        got = _decomposition_residuals(on, op, duals, DEFAULT_TOL)
        want = _stacked_residuals(mult, rep.kind, op, duals)
        assert [i for i, _ in got] == list(range(len(duals)))
        assert np.array([r for _, r in got]).tobytes() == want.tobytes()
