"""Each spectral reader of linalg judges its own result.

_sv_extremes raises NumericalOverflow where sigma_max of a finite matrix is
not finite, and every reading of singular values goes through it: op_norm,
sv_extremes, inv, rel_residual, multiplier.build and equivalence_map.
tests/test_rule_guard.py checks that each LAPACK entry has its one reader.
_sym_extremes raises where (H + H*)/2 or either extreme is not finite, for
frames and herm_eig_extremes alike. No numpy warning comes before either.
"""

import warnings

import numpy as np
import pytest

from framemult import InvalidArgument, NotHermitian, NumericalOverflow, herm_eig_extremes, new_frame
from framemult.linalg import inv, op_norm, sv_extremes

# Finite entries, sigma_max = 2e308.
BIG = np.full((2, 2), 1e308)
# Invertible, both singular values 1.92e308: sigma_min/sigma_max would read inf/inf.
BIG_INVERTIBLE = np.array([[1.5e308, 1.2e308], [-1.2e308, 1.5e308]])


def _raises_quietly(expected, function, *args, match=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected, match=match) as info:
            function(*args)
    return info.value


@pytest.mark.parametrize(
    "function, a, message",
    [
        (op_norm, BIG, "operator norm of finite inputs overflows"),
        (sv_extremes, BIG, "largest singular value of finite inputs overflows"),
        (inv, BIG, "largest singular value of finite inputs overflows"),
        (inv, BIG_INVERTIBLE, "largest singular value of finite inputs overflows"),
    ],
)
def test_an_overflowing_largest_singular_value_is_a_numerical_overflow(function, a, message):
    _raises_quietly(NumericalOverflow, function, a, match=message)


def test_inv_of_an_empty_matrix_keeps_its_invalid_argument():
    error = _raises_quietly(InvalidArgument, inv, np.zeros((0, 0)))
    assert str(error) == "expected a non-empty matrix, got shape 0x0"


def test_a_finite_frame_operator_whose_spectrum_overflows_is_a_numerical_overflow():
    # S is close to 0.8e308 times the all-ones matrix: finite, as is (S + S*)/2,
    # but its largest eigenvalue, about 2.4e308, is not.
    t = np.sqrt(0.8e308) * np.array([[1.0, 1e-3, 0.0], [1.0, 0.0, 1e-3], [1.0, 0.0, 0.0]])
    _raises_quietly(NumericalOverflow, new_frame, t, match=r"extremal eigenvalues of \(H \+ H\*\)/2 overflow")


def test_a_skew_part_whose_norm_overflows_is_not_hermitian():
    # H - H* has finite entries 1.7e308 (1 + i), whose modulus overflows; ||H|| = 1.2e308 does not.
    # The SVD entry reads ||H - H*|| as NaN, which no comparison with rel_eq ||H|| would flag.
    a = 0.85e308 * (1.0 + 1.0j)
    h = np.array([[0.0, a], [-np.conj(a), 0.0]])
    assert np.isfinite(h - h.conj().T).all() and np.isfinite(op_norm(h))
    _raises_quietly(NotHermitian, herm_eig_extremes, h)


def test_a_nearly_hermitian_matrix_whose_norm_overflows_is_a_numerical_overflow():
    # H + H* overflows on the diagonal, and so does ||H||, which the Hermitian test reads first.
    h = np.array([[1.5e308, 1e308], [1e308, 1.5e308]], dtype=np.complex128)
    _raises_quietly(NumericalOverflow, herm_eig_extremes, h, match="operator norm of finite inputs overflows")
