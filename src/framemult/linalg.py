"""Dense complex linear-algebra substrate.

Everything downstream works with plain 2-D complex128 ndarrays. Operators stay
dense; problem sizes are desk scale (d at most 8, N at most a few dozen), so
the cost is call overhead around tiny LAPACK calls, not flops.

Each LAPACK routine the package calls has one private entry: _svd_values
(values only), _eigvalsh, _inv and _solve. An entry calls numpy's gufunc in
numpy.linalg._umath_linalg with the complex signature under np.linalg's error
state and raises its LinAlgError and message, without np.linalg's per-call
wrapper, which costs more than the routine here. It takes complex128 only (a
real operand would run the complex routine) and gives np.linalg's bits. As
_umath_linalg is private to numpy, the numpy==2.4.6 pin in CI guards it, and
pyproject.toml requires numpy 2 (1.x has no values-only svd gufunc).

The private stack helpers take a (K, m, n) stack of matrices and run one
batched LAPACK call where a loop would make K; each matrix gets the bits it
gets alone.

One overflow rule: a matrix derived from finite inputs is formed under
_quiet (numpy's overflow and invalid warnings off) and judged by the typed
check that follows, so an overflow is a NumericalOverflow with no warning.

A frame operator S = T T* is Hermitian by construction, so frames take their
bounds from _sym_extremes, the extremes of (S + S*)/2, untested: on S the
Hermitian test checks rounding only (||S - S*||/||S|| <= 3.4e-16 over 3,500
generated frames) and rejects valid frames at rel_eq 1e-17. herm_eig_extremes,
whose input comes from outside, keeps the test and decides it by the exact
rule alone, one matrix at a time.

The duality check (is T_dual U = I, on a stack of duals) is decided bound
first, SVD second. The bound ||A|| <= sqrt(mn) max|a_ij| clears a matrix when
it falls within half the tolerance the check allows; only the matrices it
cannot clear are SVD'd and judged by the exact rule. The factor-2 margin
dwarfs the roundoff in either side, so every matrix gets the verdict the
SVD-only rule gives. The bound is a largest entry, not a sum of squares, so
it cannot underflow to zero at tiny scales and clear a matrix the exact rule
rejects.

Every equality is judged by one rule, the quotient _rel_gap(gap, *norms) =
gap / max(1, *norms): X equals Y when _rel_gap(||X - Y||, ||X||, ||Y||) <= rel_eq.
A quotient in the band (rel_eq, BOUNDARY_FACTOR * rel_eq] is too close to
call either way, and _near_boundary flags it indeterminate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InvalidArgument, NotHermitian, NumericalOverflow, Singular

__all__ = [
    "Tol",
    "DEFAULT_TOL",
    "as_matrix",
    "op_norm",
    "herm_eig_extremes",
    "pinv",
    "sv_extremes",
    "inv",
    "rel_residual",
    "approx_equal",
]


@dataclass(frozen=True)
class Tol:
    """Numerical policy shared by every module.

    rel_eq: the equality threshold of the rule (see the module docstring).
    inv_cond: sigma_min/sigma_max below which a matrix counts as singular.
    pinv_cutoff: relative singular-value cutoff for the pseudo-inverse.
    """

    rel_eq: float = 1e-8
    inv_cond: float = 1e-10
    pinv_cutoff: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("rel_eq", "inv_cond", "pinv_cutoff"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
                raise InvalidArgument(f"{name} must lie strictly inside (0, 1), got {value!r}")


DEFAULT_TOL = Tol()
BOUNDARY_FACTOR = 11.0  # the indeterminate band is (rel_eq, BOUNDARY_FACTOR * rel_eq]

_quiet = np.errstate(over="ignore", invalid="ignore")  # the overflow rule, as a decorator
_NOT_HERMITIAN = "matrix deviates from its adjoint beyond tolerance"
_OVERFLOW = "extremal eigenvalues of (H + H*)/2 overflow"
_NOT_FINITE = "matrix entries must be finite"


def _is_integer(value) -> bool:
    """Whether value is an integer argument: any numbers.Integral except bool, so numpy integers pass."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _lapack(gufunc, signature: str, message: str):
    """The entry that runs gufunc on complex128 operands as np.linalg does, raising LinAlgError(message)."""

    def failed(err, flag):
        raise LinAlgError(message)

    def entry(*operands: np.ndarray) -> np.ndarray:
        with np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
            return gufunc(*operands, signature=signature, casting="no")

    return entry


_svd_values = _lapack(_umath_linalg.svd, "D->d", "SVD did not converge")  # descending
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "D->d", "Eigenvalues did not converge")  # ascending
_inv = _lapack(_umath_linalg.inv, "D->D", "Singular matrix")
_solve = _lapack(_umath_linalg.solve, "DD->D", "Singular matrix")  # (..., m, k) right-hand sides


def _as_2d(a, copy: bool | None = None) -> np.ndarray:
    """Coerce to a 2-D complex128 array, a fresh one when copy is True; entries unchecked."""
    mat = np.array(a, dtype=np.complex128, copy=copy)
    if mat.ndim != 2:
        raise InvalidArgument(f"expected a 2-D array, got ndim={mat.ndim}")
    return mat


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array; reject non-finite entries."""
    mat = _as_2d(a)
    if not np.isfinite(mat).all():
        raise InvalidArgument(_NOT_FINITE)
    return mat


def _nonempty(a) -> np.ndarray:
    """as_matrix for a function that needs at least one entry."""
    mat = as_matrix(a)
    if mat.size == 0:
        raise InvalidArgument(f"expected a non-empty matrix, got shape {mat.shape[0]}x{mat.shape[1]}")
    return mat


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    mat = as_matrix(a)
    if mat.size == 0:
        return 0.0
    return float(_svd_values(mat)[0])


def _op_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a finite (..., m, n) stack, by one batched SVD."""
    return _svd_values(stack)[..., 0]


def _norm_bounds(stack: np.ndarray) -> np.ndarray:
    """sqrt(mn) max|a_ij| per matrix of a (..., m, n) stack: an upper bound on its spectral norm."""
    m, n = stack.shape[-2:]
    return np.sqrt(m * n) * np.abs(stack).max(axis=(-2, -1))


def _unless_cleared(cleared: np.ndarray, exact) -> np.ndarray:
    """False where a bound cleared the matrix; elsewhere the mask exact(index) gives.

    exact takes an index into the stack's leading axes and decides only the
    matrices it selects, so the SVDs run on the uncleared matrices alone.
    """
    # A numpy bool scalar's .all() retains a few KiB of cached objects; a 0-d array's does not.
    cleared = np.asarray(cleared)
    if cleared.all():
        return np.zeros_like(cleared)
    if not cleared.any():
        return exact(...)
    mask = np.zeros_like(cleared)
    rest = ~cleared
    mask[rest] = exact(rest)
    return mask


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a (..., m, n) stack."""
    return stack.conj().swapaxes(-1, -2)


def _eig_extremes(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) per matrix of a Hermitian (..., d, d) stack; NaN for a non-finite one."""
    try:
        eigenvalues = _eigvalsh(sym)
    except LinAlgError:  # eigvalsh may not converge on a non-finite matrix
        finite = np.isfinite(sym).all(axis=(-2, -1))
        if finite.all():
            raise
        eigenvalues = _eigvalsh(np.where(finite[..., np.newaxis, np.newaxis], sym, 0.0))
        eigenvalues[~finite] = np.nan
    return eigenvalues[..., 0], eigenvalues[..., -1]


def _sym_extremes(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of (H + H*)/2 per matrix of a finite (..., d, d) stack; NaN where that overflows."""
    # H* in C order, like H: the sum runs faster on like layouts.
    return _eig_extremes((stack + np.conjugate(stack.swapaxes(-1, -2), order="C")) / 2.0)


def _unbounded(lo, hi):
    """Mask of the extremes of (H + H*)/2 that are not finite: with H finite, they overflowed or turned NaN."""
    return ~(np.isfinite(lo) & np.isfinite(hi))


def herm_eig_extremes(h, tol: Tol = DEFAULT_TOL) -> tuple[float, float]:
    """Extremal eigenvalues (smallest, largest) of a Hermitian matrix.

    The input is symmetrized as (H + H*)/2 before solving, absorbing roundoff
    from products like T T*. Inputs with ||H - H*|| > rel_eq * ||H||, or with
    an entry of H - H* that overflows, are rejected with NotHermitian; finite
    inputs whose extremes overflow are rejected with NumericalOverflow.
    """
    mat = _nonempty(h)
    if mat.shape[0] != mat.shape[1]:
        raise NotHermitian(f"matrix is {mat.shape[0]}x{mat.shape[1]}, not square")
    with np.errstate(over="ignore", invalid="ignore"):
        skew = mat - _adjoint(mat)
        lo, hi = map(float, _sym_extremes(mat))
    if not np.isfinite(skew).all() or _op_norms(skew) > tol.rel_eq * _op_norms(mat):
        raise NotHermitian(_NOT_HERMITIAN)
    if _unbounded(lo, hi):
        raise NumericalOverflow(_OVERFLOW)
    return lo, hi


def pinv(a, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values below pinv_cutoff * sigma_max are dropped."""
    return np.linalg.pinv(as_matrix(a), rcond=tol.pinv_cutoff)


def sv_extremes(a) -> tuple[float, float]:
    """(sigma_min, sigma_max) of a matrix."""
    s = _svd_values(_nonempty(a))
    return float(s[-1]), float(s[0])


def _invertible(sigma_min: float, sigma_max: float, tol: Tol) -> bool:
    """The singularity proxy: sigma_max > 0 and sigma_min/sigma_max >= inv_cond (False on NaN)."""
    return sigma_max > 0.0 and sigma_min / sigma_max >= tol.inv_cond


def inv(a, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse, guarded by the singularity proxy (see _invertible)."""
    mat = as_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise InvalidArgument(f"cannot invert a {mat.shape[0]}x{mat.shape[1]} matrix")
    sigma_min, sigma_max = sv_extremes(mat)
    if not _invertible(sigma_min, sigma_max, tol):
        raise Singular(
            f"sigma_min/sigma_max = {sigma_min:.3e}/{sigma_max:.3e} below inv_cond={tol.inv_cond:g}"
        )
    return _inv(mat)


def _rel_gap(gap, *norms: float):
    """The rule's quotient gap / max(1, *norms); 1.0 comes first, so a NaN norm is skipped."""
    return gap / max(1.0, *norms)


def _near_boundary(quotient: float, tol: Tol) -> bool:
    """Whether a quotient of the rule lies in the indeterminate band."""
    return tol.rel_eq < quotient <= BOUNDARY_FACTOR * tol.rel_eq


def rel_residual(x, y) -> float:
    """The rule's quotient for operators X and Y."""
    mx, my = as_matrix(x), as_matrix(y)
    return _rel_gap(op_norm(mx - my), op_norm(mx), op_norm(my))


def approx_equal(x, y, tol: Tol = DEFAULT_TOL) -> bool:
    """Operator equality under the rule: rel_residual(x, y) <= rel_eq."""
    return rel_residual(x, y) <= tol.rel_eq
