"""Power-of-two scale covariance as a test oracle.

Multiplying a frame by 2^k is exact in binary floating point, and SVD and
eigvalsh commute with it bit for bit, so no verdict should change when the
generated frames are rescaled: stream 0 (the left frame) by 2^a and stream 1
(the right frame) by 2^b. The combined run at seed 0 is the oracle; it needs
no reference values.

Verdicts and note classes stay the same at (10, 0), (0, -10) and (5, 5). The
non-invariances measured at the other pairs are pinned below as expected
facts until the rule and the transcribed constants become scale-covariant
(ROADMAP item 2).
"""

from collections import Counter
from functools import cache

import pytest

from framemult import ExperimentConfig, new_frame, run_suite
from framemult import suites

TRIALS = 14
_MAKE_FRAME = suites._make_frame


def _outcomes() -> dict[tuple[str, int], str]:
    """(suite, trial) -> the note's error class, or the verdict when the trial raised nothing."""
    report = run_suite(ExperimentConfig(suite="all", trials=TRIALS, seed=0))
    return {(r.suite, r.trial): r.note.split(":")[0] or r.verdict for r in report.records}


@cache
def _base() -> dict[tuple[str, int], str]:
    """The outcomes at (0, 0); called before any scaling is patched in."""
    return _outcomes()


def _changes(monkeypatch, a: int, b: int) -> Counter:
    """Count of (suite, outcome at (0, 0), outcome at (a, b)) over the trials that change."""

    def scaled(generator, d, n, seed, tol):
        f = _MAKE_FRAME(generator, d, n, seed, tol)
        return new_frame(f.synth * 2.0 ** (a if seed[2] == 0 else b), tol)

    base = _base()
    monkeypatch.setattr(suites, "_make_frame", scaled)
    moved = _outcomes()
    assert base.keys() == moved.keys()
    return Counter((key[0], base[key], moved[key]) for key in base if base[key] != moved[key])


@pytest.mark.parametrize("a, b", [(10, 0), (0, -10), (5, 5)])
def test_verdicts_and_notes_are_invariant(monkeypatch, a, b):
    assert _changes(monkeypatch, a, b) == Counter()


# Measured non-invariances: the rule is absolute below norm 1, and the per2
# floor and caps are transcribed constants that do not scale with the frames.
# At (30, 30), ||M^{-1}|| is about 2^-60, so on the odd, negative equivalence
# trials ||Gamma|| and the formula's bound fall under rel_eq.
EXPECTED_CHANGES = {
    (30, 30): {
        ("equivalence", "pass", "fail"): 6,
        ("equivalence", "pass", "indeterminate"): 1,
    },
    (-30, -30): {
        ("gamma", "fail", "pass"): 14,
        ("theta", "fail", "pass"): 14,
        ("equivalence", "pass", "fail"): 7,
    },
    (0, 10): {("per2", "pass", "HypothesisViolated"): 14},
    (-10, 0): {("per2", "pass", "HypothesisViolated"): 14},
    (30, -30): {
        ("thm1", "pass", "fail"): 14,
        ("equivalence", "pass", "fail"): 7,
    },
    (-30, 30): {
        ("thm1", "pass", "fail"): 14,
        ("per2", "pass", "HypothesisViolated"): 14,
        ("per3", "pass", "fail"): 7,
        ("equivalence", "pass", "fail"): 7,
    },
}


@pytest.mark.parametrize("a, b", sorted(EXPECTED_CHANGES))
def test_pinned_non_invariances(monkeypatch, a, b):
    assert _changes(monkeypatch, a, b) == Counter(EXPECTED_CHANGES[a, b])
