"""Verdicts across rel_eq: where the default run's verdicts hold and how they flip.

Between rel_eq 1e-13 and 1e-2 the default run (--suite all --trials 100)
gives the totals of the default 1e-8, on every BLAS kernel tried. Just below
that window, at 1e-14, verdicts flip through raised checks, not through
residual comparisons: an inverse residual of about 1e-14 fails invert
(Singular), and on some equivalence trials the duality check finds a
canonical dual whose T_dual U misses I by more than rel_eq (InvalidDual).
Which trials flip depends on the BLAS kernel's rounding (579/221 on
OpenBLAS's SkylakeX kernel, 576/224 on Haswell), so the test pins what
holds on every kernel: each verdict that differs from the 1e-13 run is a
failure whose note has one of the listed classes.
"""

from collections import Counter

import pytest

from framemult import ExperimentConfig, Tol, run_suite
from framemult.frames import _NOT_DUAL


def _run(rel_eq: float):
    return run_suite(ExperimentConfig(suite="all", trials=100, tol=Tol(rel_eq=rel_eq)))


@pytest.mark.parametrize("rel_eq", [1e-13, 1e-2])
def test_totals_hold_across_the_window(rel_eq):
    report = _run(rel_eq)
    assert (report.passed, report.failed, report.indeterminate) == (599, 201, 0)


# The (suite, note class) of a failure that rel_eq 1e-14 adds to the 1e-13 run.
FLIPS = {("thm1", "Singular"), ("equivalence", "Singular"), ("equivalence", "InvalidDual")}


def test_below_the_window_verdicts_flip_through_raised_checks():
    window, below = _run(1e-13), _run(1e-14)
    assert below.indeterminate == 0
    flipped = [b for a, b in zip(window.records, below.records, strict=True) if a.verdict != b.verdict]
    assert flipped, "no verdict flips below the window"
    assert {b.verdict for b in flipped} == {"fail"}
    classes = Counter((b.suite, b.note.partition(":")[0]) for b in flipped)
    assert set(classes) <= FLIPS, classes
    assert classes[("equivalence", "InvalidDual")] > 0
    invalid = [r for r in below.records if r.note.startswith("InvalidDual")]
    assert {r.note for r in invalid} == {f"InvalidDual: {_NOT_DUAL}"}
    assert below.failed - window.failed == len(flipped)
