"""`--suite all` runs trial by trial: same report as the solo suites, one trial's fixtures at a time."""

import json
import sys
import threading

import pytest

from framemult import ExperimentConfig, GenerationFailed, run_suite
from framemult import suites
from framemult.suites import GENERATOR_NAMES, SUITE_NAMES

SEED = 4242  # distinct from every size below, so seed tuples are easy to spot in keys
DIMS = {
    "random": ((2, 5), (3, 7)),
    "harmonic": ((2, 5), (3, 6)),
    "gabor": ((2, 4), (3, 9)),
    "riesz": ((2, 2), (3, 3)),
    "onb": ((2, 3), (3, 4)),
}
TRIALS = 4


def _cfg(suite: str, generator: str) -> ExperimentConfig:
    return ExperimentConfig(
        suite=suite, dims=DIMS[generator], trials=TRIALS, seed=SEED, generator=generator
    )


def _records(report) -> list[str]:
    return [json.dumps(record.as_dict(), sort_keys=True) for record in report.records]


def _assert_combined_equals_solo(generator: str) -> list:
    combined = run_suite(_cfg("all", generator))
    solo = [run_suite(_cfg(name, generator)) for name in SUITE_NAMES]
    assert _records(combined) == [line for report in solo for line in _records(report)]
    assert [r.note for r in combined.records] == [r.note for rep in solo for r in rep.records]
    assert combined.passed == sum(rep.passed for rep in solo)
    assert combined.failed == sum(rep.failed for rep in solo)
    assert combined.indeterminate == sum(rep.indeterminate for rep in solo)
    assert combined.max_residual == max(rep.max_residual for rep in solo)
    return combined.records


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_combined_report_is_the_solo_reports_concatenated(generator):
    records = _assert_combined_equals_solo(generator)
    assert [r.suite for r in records] == [name for name in SUITE_NAMES for _ in range(TRIALS)]


@pytest.mark.parametrize("stream", [0, 1])
def test_failed_fixture_fails_its_trial_in_every_suite(monkeypatch, stream):
    clean = run_suite(_cfg("all", "random")).records
    real = suites.random_frame
    failed_draws = []

    def flaky(d, n, rng_seed, *args, **kwargs):
        if rng_seed[1] == 1 and rng_seed[2] == stream:
            failed_draws.append(rng_seed)
            raise GenerationFailed("forced failure")
        return real(d, n, rng_seed, *args, **kwargs)

    monkeypatch.setattr(suites, "random_frame", flaky)
    records = run_suite(_cfg("all", "random")).records
    # Never memoized: every suite draws the failing frame again.
    assert len(failed_draws) == len(SUITE_NAMES)
    _assert_combined_equals_solo("random")
    for record, before in zip(records, clean, strict=True):
        if record.trial == 1:
            assert (record.verdict, record.note) == ("fail", "GenerationFailed: forced failure")
            assert record.residuals == {}
        else:
            assert record == before


def test_each_trial_draws_its_frames_once(monkeypatch):
    real = suites.random_frame
    draws = []

    def counting(d, n, rng_seed, *args, **kwargs):
        draws.append(rng_seed)
        return real(d, n, rng_seed, *args, **kwargs)

    monkeypatch.setattr(suites, "random_frame", counting)
    run_suite(_cfg("all", "random"))
    assert sorted(draws) == [(SEED, t, s) for t in range(TRIALS) for s in (0, 1)]


# ------------------------------------------------------------------ memo hygiene


def _trials_in(key) -> set[int]:
    """Trial indices of the (seed, trial, ...) tuples nested in a memo key."""
    found = set()
    for part in key:
        if isinstance(part, tuple):
            if len(part) >= 2 and part[0] == SEED and isinstance(part[1], int):
                found.add(part[1])
            else:
                found |= _trials_in(part)
    return found


def _run_memo(memos: list) -> dict:
    """The one memo every body of a run saw."""
    assert memos and all(memo is memos[0] for memo in memos)
    return memos[0]


@pytest.mark.parametrize("generator", ["random", "riesz", "harmonic"])
def test_memo_holds_one_trial_and_is_empty_after_the_run(monkeypatch, generator):
    seen, memos = [], []
    for name, body in list(suites._TRIAL_BODIES.items()):

        def watched(cfg, trial, d, n, body=body, name=name):
            memo = suites._MEMO.get()
            memos.append(memo)
            held = {t for key in memo for t in _trials_in(key)}
            if name == SUITE_NAMES[0]:
                assert not memo  # cleared before each trial
            assert held <= {trial}
            try:
                return body(cfg, trial, d, n)
            finally:
                held = {t for key in memo for t in _trials_in(key)}
                assert held <= {trial}
                seen.append(len(memo))

        monkeypatch.setitem(suites._TRIAL_BODIES, name, watched)
    run_suite(_cfg("all", generator))
    assert len(seen) == len(SUITE_NAMES) * TRIALS
    assert max(seen) > 0
    assert _run_memo(memos) == {}


def test_memo_is_empty_after_a_programming_error(monkeypatch):
    body = suites._TRIAL_BODIES["gamma"]
    memos = []

    def broken(cfg, trial, d, n):
        memos.append(suites._MEMO.get())
        if trial == 2:
            assert memos[-1]  # earlier suites of this trial stored fixtures
            raise KeyError("missing")
        return body(cfg, trial, d, n)

    monkeypatch.setitem(suites._TRIAL_BODIES, "gamma", broken)
    with pytest.raises(KeyError):
        run_suite(_cfg("all", "random"))
    assert _run_memo(memos) == {}


# ------------------------------------------------------------ concurrent runs


def test_concurrent_runs_each_give_the_serial_report():
    # Small frames make trials short, so the runs clear their memos often.
    cfg = ExperimentConfig(suite="all", dims=((1, 2),), trials=10, seed=SEED)
    serial = _records(run_suite(cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)
    try:
        for _ in range(20):
            reports, errors = [None, None], []

            def run(slot):
                try:
                    reports[slot] = run_suite(cfg)
                except Exception as exc:  # recorded and asserted on below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
            assert [_records(report) for report in reports] == [serial, serial]
    finally:
        sys.setswitchinterval(interval)
