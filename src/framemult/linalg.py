"""Dense complex linear-algebra substrate.

Everything downstream works with plain 2-D complex128 ndarrays. Operators stay
dense; problem sizes are desk scale (d at most 8, N at most a few dozen), so
the cost is call overhead around tiny LAPACK calls, not flops.

Each LAPACK routine the package calls has one private entry, and each entry
one reader, which judges its result: _sv_extremes reads _svd_values (values
only), _sym_extremes _eigvalsh, _lu_inv _inv and Frame._canonical_synth
_solve. A spectral reader whose result is not finite raises NumericalOverflow,
so no caller checks a spectrum again. An entry calls numpy's gufunc in
numpy.linalg._umath_linalg with the complex signature under np.linalg's error
state, built once per entry and applied as a decorator, and raises its
LinAlgError and message, without np.linalg's per-call wrapper, which costs
more than the routine here. It takes complex128 only (a real operand would
run the complex routine) and gives np.linalg's bits. As _umath_linalg is
private to numpy, the numpy==2.4.6 pin in CI guards it, and pyproject.toml
requires numpy 2 (1.x has no values-only svd gufunc).

Each kind of operand has one judge: input from outside is judged by
as_matrix (an InvalidArgument), a matrix the package derives by the overflow
rule alone. _norm is the one operator norm kernel, for a judged matrix;
op_norm, _norm of as_matrix, is a public entry point that nothing in the
package calls. _lu_inv is the one inverse kernel, for inv and multiplier's
memo. Every helper takes one matrix.

One overflow rule: a matrix derived from finite inputs is formed under
_quiet (numpy's overflow and invalid warnings off) and judged by the typed
check that follows, so an overflow is a NumericalOverflow with no warning.
A product or difference no other check reads is judged by _finite, then
normed by _norm. Only the outermost _quiet call enters an error state; a
call nested in it runs in that state.

A frame operator S = T T* is Hermitian by construction, so frames take their
bounds from _sym_extremes, the extremes of (S + S*)/2, untested: on S the
Hermitian test checks rounding only (||S - S*||/||S|| <= 3.4e-16 over 3,500
generated frames) and rejects valid frames at rel_eq 1e-17. herm_eig_extremes,
whose input comes from outside, keeps the test and decides it by the exact
rule alone. The duality check of frames judges T_dual U by the rule's
quotient too, one dual at a time.

Every equality is judged by one rule, the quotient _rel_gap(gap, *norms) =
gap / max(1, *norms): X equals Y when _rel_gap(||X - Y||, ||X||, ||Y||) <= rel_eq.
A quotient in the band (rel_eq, BOUNDARY_FACTOR * rel_eq] is too close to
call either way, and _near_boundary flags it indeterminate.
"""

from __future__ import annotations

import functools
import math
import numbers
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionMismatch, InvalidArgument, NotHermitian, NumericalOverflow, Singular

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

_QUIET: ContextVar[bool] = ContextVar("framemult.linalg.quiet", default=False)  # inside a _quiet call
_NOT_HERMITIAN = "matrix deviates from its adjoint beyond tolerance"
_NOT_FINITE = "matrix entries must be finite"


def _is_integer(value) -> bool:
    """Whether value is an integer argument: any numbers.Integral except bool, so numpy integers pass."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _expect(value, kind: type, name: str) -> None:
    """An InvalidArgument naming kind unless value is an instance of it (for the package's own types)."""
    if not isinstance(value, kind):
        raise InvalidArgument(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed); a seed numpy refuses (a negative, a float, a str) is an InvalidArgument."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"cannot seed a generator with {seed!r}: {exc}") from None


def _quiet(fn):
    """The overflow rule as a decorator: fn runs with numpy's overflow and invalid warnings off.

    Only the outermost decorated call enters np.errstate, which keeps the
    caller's other settings; a call nested in it runs bare, in that state.
    The flag is a ContextVar, so each thread finds its own.
    """
    entered = np.errstate(over="ignore", invalid="ignore")(fn)

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            return entered(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return quiet


def _lapack(gufunc, signature: str, message: str):
    """The entry that runs gufunc on complex128 operands as np.linalg does, raising LinAlgError(message)."""

    def failed(err, flag):
        raise LinAlgError(message)

    @np.errstate(call=failed, invalid="call", over="ignore", divide="ignore", under="ignore")
    def entry(*operands: np.ndarray) -> np.ndarray:
        return gufunc(*operands, signature=signature, casting="no")

    return entry


_svd_values = _lapack(_umath_linalg.svd, "D->d", "SVD did not converge")  # descending
_eigvalsh = _lapack(_umath_linalg.eigvalsh_lo, "D->d", "Eigenvalues did not converge")  # ascending
_inv = _lapack(_umath_linalg.inv, "D->D", "Singular matrix")
_solve = _lapack(_umath_linalg.solve, "DD->D", "Singular matrix")  # (..., m, k) right-hand sides


def _complex(a) -> np.ndarray:
    """np.asarray(a, dtype=complex128); an InvalidArgument for input numpy cannot read as complex."""
    try:
        return np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # a malformed string, an object, a huge int
        raise InvalidArgument(f"cannot read the input as complex numbers: {exc}") from None


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array; reject non-finite entries."""
    mat = _complex(a)
    if mat.ndim != 2:
        raise InvalidArgument(f"expected a 2-D array, got ndim={mat.ndim}")
    if not np.isfinite(mat).all():
        raise InvalidArgument(_NOT_FINITE)
    return mat


def _finite(mat, what: str):
    """mat, an array or a float formed under _quiet from finite inputs; a NumericalOverflow unless it is finite."""
    # Not np.isfinite(float).all(): a numpy scalar's .all() looks its method up
    # by a new "all" str, which CPython's type attribute cache may keep, so the
    # blocks a run leaves would depend on addresses rather than on its work.
    if not (math.isfinite(mat) if isinstance(mat, float) else np.isfinite(mat).all()):
        raise NumericalOverflow(f"{what} of finite inputs overflows")
    return mat


def _nonempty(a) -> np.ndarray:
    """as_matrix for a function that needs at least one entry."""
    mat = as_matrix(a)
    if mat.size == 0:
        raise InvalidArgument(f"expected a non-empty matrix, got shape {mat.shape[0]}x{mat.shape[1]}")
    return mat


def _sv_extremes(mat: np.ndarray, what: str = "largest singular value") -> tuple[float, float]:
    """(sigma_min, sigma_max) of a non-empty finite 2-D complex128 matrix; a NumericalOverflow unless finite."""
    s = _svd_values(mat)
    return float(s[-1]), _finite(float(s[0]), what)


def _norm(mat: np.ndarray) -> float:
    """The operator norm of a 2-D complex128 matrix with finite entries: its largest singular value."""
    return _sv_extremes(mat, "operator norm")[1] if mat.size else 0.0


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value; a NumericalOverflow where it overflows."""
    return _norm(as_matrix(a))


def _sym_extremes(h: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of (H + H*)/2 for finite d x d H under _quiet; a NumericalOverflow unless finite."""
    # H* in C order, like H: the sum runs faster on like layouts.
    sym = (h + np.conjugate(h.T, order="C")) / 2.0
    if np.isfinite(sym).all():  # eigvalsh may fail, or give finite values, on a matrix that is not
        eigenvalues = _eigvalsh(sym)
        lo, hi = float(eigenvalues[0]), float(eigenvalues[-1])
        if math.isfinite(lo) and math.isfinite(hi):  # eigvalsh can overflow on a finite matrix
            return lo, hi
    raise NumericalOverflow("extremal eigenvalues of (H + H*)/2 overflow")


@_quiet
def herm_eig_extremes(h, tol: Tol = DEFAULT_TOL) -> tuple[float, float]:
    """Extremal eigenvalues (smallest, largest) of a Hermitian matrix.

    The input is symmetrized as (H + H*)/2 before solving, absorbing roundoff
    from products like T T*. Inputs with ||H - H*|| > rel_eq * ||H||, or with
    an entry of H - H* that overflows, are rejected with NotHermitian; finite
    inputs whose norm or extremes overflow are rejected with NumericalOverflow.
    """
    mat = _nonempty(h)
    if mat.shape[0] != mat.shape[1]:
        raise NotHermitian(f"matrix is {mat.shape[0]}x{mat.shape[1]}, not square")
    skew = mat - mat.conj().T
    if not np.isfinite(skew).all():
        raise NotHermitian(_NOT_HERMITIAN)
    bound = tol.rel_eq * _norm(mat)  # a NumericalOverflow where ||H|| overflows
    try:
        skewed = _norm(skew) > bound
    except NumericalOverflow:  # ||H - H*|| is not finite where ||H|| is (the SVD may read it as NaN)
        skewed = True
    if skewed:
        raise NotHermitian(_NOT_HERMITIAN)
    return _sym_extremes(mat)


@_quiet
def pinv(a, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values below pinv_cutoff * sigma_max are dropped.

    One that overflows although the input is finite is a NumericalOverflow.
    """
    return _finite(np.linalg.pinv(as_matrix(a), rcond=tol.pinv_cutoff), "pseudo-inverse")


def sv_extremes(a) -> tuple[float, float]:
    """(sigma_min, sigma_max) of a matrix; a NumericalOverflow where sigma_max overflows."""
    return _sv_extremes(_nonempty(a))


def _invertible(sigma_min: float, sigma_max: float, tol: Tol) -> bool:
    """The singularity proxy: sigma_max > 0 and sigma_min/sigma_max >= inv_cond."""
    return sigma_max > 0.0 and sigma_min / sigma_max >= tol.inv_cond


def _lu_inv(mat: np.ndarray) -> np.ndarray:
    """The inverse of a finite square complex128 matrix: a zero pivot is Singular, an overflow a NumericalOverflow.

    A matrix that passes the singularity proxy meets a zero pivot where its LU factors underflow.
    """
    try:
        inverse = _inv(mat)
    except LinAlgError:
        raise Singular("the LU factorization meets a zero pivot") from None
    return _finite(inverse, "inverse")


def inv(a, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse, guarded by the singularity proxy (see _invertible), then by _lu_inv."""
    mat = _nonempty(a)
    if mat.shape[0] != mat.shape[1]:
        raise InvalidArgument(f"cannot invert a {mat.shape[0]}x{mat.shape[1]} matrix")
    sigma_min, sigma_max = _sv_extremes(mat)
    if not _invertible(sigma_min, sigma_max, tol):
        raise Singular(
            f"sigma_min/sigma_max = {sigma_min:.3e}/{sigma_max:.3e} below inv_cond={tol.inv_cond:g}"
        )
    return _lu_inv(mat)


def _rel_gap(gap, *norms: float):
    """The rule's quotient gap / max(1, *norms); 1.0 comes first, so a NaN norm is skipped."""
    return gap / max(1.0, *norms)


def _near_boundary(quotient: float, tol: Tol) -> bool:
    """Whether a quotient of the rule lies in the indeterminate band."""
    return tol.rel_eq < quotient <= BOUNDARY_FACTOR * tol.rel_eq


@_quiet
def rel_residual(x, y) -> float:
    """The rule's quotient for operators X and Y, which must have one shape.

    X - Y, or a norm, that overflows is a NumericalOverflow: an infinite norm
    would read the quotient as 0.
    """
    mx, my = as_matrix(x), as_matrix(y)
    if mx.shape != my.shape:
        raise DimensionMismatch(f"cannot compare matrices of shapes {mx.shape} and {my.shape}")
    gap, norm_x, norm_y = (_norm(m) for m in (_finite(mx - my, "X - Y"), mx, my))
    return _rel_gap(gap, norm_x, norm_y)


def approx_equal(x, y, tol: Tol = DEFAULT_TOL) -> bool:
    """Operator equality under the rule: rel_residual(x, y) <= rel_eq."""
    return rel_residual(x, y) <= tol.rel_eq
