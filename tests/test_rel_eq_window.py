"""Verdicts across rel_eq: where the default run's verdicts hold and how they flip.

Between rel_eq 1e-13 and 1e-2 the default run (--suite all --trials 100)
gives the totals of the default 1e-8. Just below that window, at 1e-14,
verdicts flip through raised checks, not through residual comparisons: trial
55's inverse residual, 1.03e-14, fails invert in thm1, gamma, theta and
equivalence, and on 18 equivalence trials the duality check finds a
canonical dual whose T_dual U misses I by more than rel_eq. The note classes
per suite pin which check raised each failure.
"""

from collections import Counter

import pytest

from framemult import ExperimentConfig, Tol, run_suite
from framemult.frames import _NOT_DUAL

INVALID_DUAL_TRIALS = [6, 8, 12, 16, 20, 24, 30, 34, 40, 48, 54, 68, 74, 76, 86, 90, 92, 96]


def _run(rel_eq: float):
    return run_suite(ExperimentConfig(suite="all", trials=100, tol=Tol(rel_eq=rel_eq)))


@pytest.mark.parametrize("rel_eq", [1e-13, 1e-2])
def test_totals_hold_across_the_window(rel_eq):
    report = _run(rel_eq)
    assert (report.passed, report.failed, report.indeterminate) == (599, 201, 0)


def test_below_the_window_verdicts_flip_through_raised_checks():
    report = _run(1e-14)
    assert (report.passed, report.failed, report.indeterminate) == (579, 221, 0)
    failures = Counter(
        (r.suite, r.note.partition(":")[0]) for r in report.records if r.verdict != "pass"
    )
    assert failures == {
        ("thm1", "Singular"): 1,
        ("per2", "HypothesisViolated"): 1,
        ("gamma", ""): 99,
        ("gamma", "Singular"): 1,
        ("theta", ""): 99,
        ("theta", "Singular"): 1,
        ("equivalence", "InvalidDual"): 18,
        ("equivalence", "Singular"): 1,
    }
    invalid = [r for r in report.records if r.note.startswith("InvalidDual")]
    assert [r.trial for r in invalid] == INVALID_DUAL_TRIALS
    assert {r.note for r in invalid} == {f"InvalidDual: {_NOT_DUAL}"}
    singular = {(r.suite, r.trial) for r in report.records if r.note.startswith("Singular")}
    assert singular == {(suite, 55) for suite in ("thm1", "gamma", "theta", "equivalence")}
