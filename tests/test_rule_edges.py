"""The edges of the one equality rule, and the one reading of ||M^{-1}||.

The rule is the quotient _rel_gap(gap, *norms) = gap / max(1, *norms),
judged against rel_eq. As a quotient it rejects an infinite side against a
finite one (inf / inf is NaN), never holds on NaN, holds exactly at rel_eq,
and skips a NaN norm because 1.0 comes first in max. ||M^{-1}|| is read as
1/sigma_min(M) from build's SVD, with no SVD of the inverse.
"""

import math

import numpy as np
import pytest

from framemult import DEFAULT_TOL, Tol, build, random_frame, random_symbol
from framemult import linalg, multiplier
from framemult.linalg import _near_boundary, _rel_gap, op_norm, rel_residual
from framemult.multiplier import Multiplier, _inverse_norm, _scalar_condition
from framemult.suites import DEFAULT_DIMS

REL = DEFAULT_TOL.rel_eq


# ------------------------------------------------------------------ the rule


@pytest.mark.parametrize("lhs, rhs", [(math.inf, 5.0), (5.0, math.inf), (-math.inf, 5.0)])
def test_an_infinite_side_never_equals_a_finite_one(lhs, rhs):
    cond = _scalar_condition(lhs, rhs, DEFAULT_TOL)
    assert cond.holds is False
    assert not cond.residual <= REL  # NaN for inf / inf, inf for inf / 5


@pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_nan_never_holds(lhs, rhs):
    assert _scalar_condition(lhs, rhs, DEFAULT_TOL).holds is False
    assert not _rel_gap(math.nan, lhs, rhs) <= REL


def test_a_quotient_exactly_at_rel_eq_holds_and_one_ulp_past_it_fails():
    rel = 2.0**-20
    cond = _scalar_condition(4.0, 4.0 - 2.0**-18, Tol(rel_eq=rel))
    assert cond.residual == rel
    assert cond.holds is True
    assert _scalar_condition(4.0, 4.0 - 2.0**-18, Tol(rel_eq=math.nextafter(rel, 0.0))).holds is False


def test_the_scale_is_one_below_norm_one_and_a_nan_norm_is_skipped():
    assert _rel_gap(0.25, 0.5) == 0.25
    assert _rel_gap(0.5, 4.0, 2.0) == 0.125
    assert _rel_gap(0.5, math.nan) == 0.5
    assert _rel_gap(0.5, math.nan, 4.0) == 0.125


def test_verdicts_are_python_bools():
    assert type(_scalar_condition(1.0, 1.0, DEFAULT_TOL).holds) is bool
    assert type(_near_boundary(2.0 * REL, DEFAULT_TOL)) is bool


def test_the_indeterminate_band_is_half_open_above_rel_eq():
    top = linalg.BOUNDARY_FACTOR * REL
    assert not _near_boundary(REL, DEFAULT_TOL)
    assert _near_boundary(math.nextafter(REL, 1.0), DEFAULT_TOL)
    assert _near_boundary(top, DEFAULT_TOL)
    assert not _near_boundary(math.nextafter(top, 1.0), DEFAULT_TOL)
    assert not _near_boundary(math.nan, DEFAULT_TOL)
    assert multiplier.BOUNDARY_FACTOR is linalg.BOUNDARY_FACTOR


def test_rel_residual_is_the_rule_on_operator_norms():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = x + 1e-9 * rng.standard_normal((4, 4))
    assert rel_residual(x, y) == _rel_gap(op_norm(x - y), op_norm(x), op_norm(y))


# ------------------------------------------------------- ||M^{-1}|| and build


def _multipliers():
    for k, (d, n) in enumerate(DEFAULT_DIMS):
        phi, psi = random_frame(d, n, (2121, k, 0)), random_frame(d, n, (2121, k, 1))
        yield build(random_symbol(n, 0.5, 2.0, (2121, k, 2)), phi, psi)


def test_inverse_norm_is_one_over_sigma_min_bit_for_bit():
    mults = [mult for mult in _multipliers() if mult.inv_diag.invertible]
    assert len(mults) == len(DEFAULT_DIMS)
    for mult in mults:
        assert _inverse_norm(mult, DEFAULT_TOL) == 1.0 / mult.inv_diag.sigma_min
    assert not hasattr(Multiplier, "_inverse_op_norm")


def test_build_keeps_the_product_it_formed_read_only():
    for mult in _multipliers():
        matrix = mult.matrix
        assert not matrix.flags.writeable
        assert matrix.flags.owndata
        expected = (mult.left.synth * mult.symbol.values[np.newaxis, :]) @ mult.right.analysis_op
        assert matrix.tobytes() == expected.tobytes()
