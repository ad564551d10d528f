"""A numerical error fails its own trial only; config validation of trials and dims."""

import json

import numpy as np
import pytest

from framemult import ConfigInvalid, ExperimentConfig, run_suite, validate_config
from framemult import suites
from framemult.serialize import report_to_json


@pytest.mark.parametrize(
    "error",
    [
        ValueError("bad value"),
        np.linalg.LinAlgError("SVD did not converge"),
        ZeroDivisionError("division by zero"),
        # What numpy raises for an N too large to allocate; made here without allocating.
        np._core._exceptions._ArrayMemoryError((2, 4294967296), np.dtype(np.complex128)),
        MemoryError("out of memory"),
    ],
)
def test_numerical_error_fails_only_its_trial(monkeypatch, error):
    body = suites._TRIAL_BODIES["per1"]

    def flaky(cfg, trial, d, n):
        if trial == 1:
            raise error
        return body(cfg, trial, d, n)

    monkeypatch.setitem(suites._TRIAL_BODIES, "per1", flaky)
    report = run_suite(ExperimentConfig(suite="per1", dims=((3, 6),), trials=3, seed=7))
    assert [r.verdict for r in report.records] == ["pass", "fail", "pass"]
    assert report.records[1].note == f"{type(error).__name__}: {error}"
    assert (report.passed, report.failed) == (2, 1)


def test_programming_errors_still_propagate(monkeypatch):
    def broken(cfg, trial, d, n):
        raise KeyError("missing")

    monkeypatch.setitem(suites._TRIAL_BODIES, "per1", broken)
    with pytest.raises(KeyError):
        run_suite(ExperimentConfig(suite="per1", dims=((3, 6),), trials=1))


@pytest.mark.parametrize("trials", [True, False, np.bool_(True), 2.0])
def test_rejects_non_integer_trials(trials):
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(suite="per1", trials=trials))


@pytest.mark.parametrize("dims", [((True, 3),), ((2, 3.0),), ((np.bool_(True), 3),)])
def test_rejects_non_integer_dims(dims):
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(suite="per1", dims=dims))


def test_numpy_integer_dims_run_like_python_ints():
    plain = run_suite(ExperimentConfig(suite="per1", dims=((3, 7),), trials=2, seed=3))
    numpy_dims = ((np.int64(3), np.int64(7)),)
    cfg = validate_config(ExperimentConfig(suite="per1", dims=numpy_dims, trials=2, seed=3))
    assert cfg.dims == ((3, 7),) and all(type(v) is int for v in cfg.dims[0])
    report = run_suite(ExperimentConfig(suite="per1", dims=numpy_dims, trials=2, seed=3))

    def scrubbed(rep):
        doc = rep.as_dict()
        doc["aggregate"]["wall_time_s"] = 0.0
        return json.dumps(doc, sort_keys=True)

    assert scrubbed(report) == scrubbed(plain)
    again = run_suite(ExperimentConfig(suite="per1", dims=((3, 7),), trials=np.int64(2), seed=3))
    assert scrubbed(again) == scrubbed(plain)


def test_numpy_integer_seed_runs_like_a_python_int():
    plain = run_suite(ExperimentConfig(suite="per1", dims=((3, 7),), trials=2, seed=3))
    numpy_seed = ExperimentConfig(suite="per1", dims=((3, 7),), trials=2, seed=np.int64(3))
    cfg = validate_config(numpy_seed)
    assert cfg.seed == 3 and type(cfg.seed) is int
    report = run_suite(numpy_seed)
    assert all(type(record.seed) is int for record in report.records)

    def scrubbed(rep):
        doc = json.loads(report_to_json(rep))
        doc["aggregate"]["wall_time_s"] = 0.0
        return json.dumps(doc, sort_keys=True)

    assert scrubbed(report) == scrubbed(plain)
