"""Dense complex linear-algebra substrate.

Everything downstream works with plain 2-D complex128 ndarrays. Operators stay
dense; problem sizes are desk scale (d at most 8, N at most a few dozen), so
the cost is call overhead around tiny LAPACK calls, not flops. The private
stack helpers take a (K, m, n) stack of matrices and run one batched LAPACK
call where a loop would make K; each matrix gets the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, Singular

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

    rel_eq: relative residual threshold for operator equalities.
    inv_cond: sigma_min/sigma_max below which a matrix counts as singular.
    pinv_cutoff: relative singular-value cutoff for the pseudo-inverse.
    """

    rel_eq: float = 1e-8
    inv_cond: float = 1e-10
    pinv_cutoff: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("rel_eq", "inv_cond", "pinv_cutoff"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


DEFAULT_TOL = Tol()

_NOT_HERMITIAN = "matrix deviates from its adjoint beyond tolerance"


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array; reject non-finite entries."""
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={mat.ndim}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix entries must be finite")
    return mat


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    mat = as_matrix(a)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def _op_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norm of each matrix in a finite (..., m, n) stack, by one batched SVD."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a (..., m, n) stack."""
    return stack.conj().swapaxes(-1, -2)


def _herm_extremes(stack: np.ndarray, tol: Tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(not Hermitian, lambda_min, lambda_max) for each matrix of a finite (..., d, d) stack.

    A matrix is not Hermitian when ||H - H*|| > rel_eq * ||H||; the extremes
    are those of (H + H*)/2.
    """
    adj = _adjoint(stack)
    skew = _op_norms(stack - adj) > tol.rel_eq * _op_norms(stack)
    eigenvalues = np.linalg.eigvalsh((stack + adj) / 2.0)
    return skew, eigenvalues[..., 0], eigenvalues[..., -1]


def herm_eig_extremes(h, tol: Tol = DEFAULT_TOL) -> tuple[float, float]:
    """Extremal eigenvalues (smallest, largest) of a Hermitian matrix.

    The input is symmetrized as (H + H*)/2 before solving, absorbing roundoff
    from products like T T*. Inputs farther than rel_eq * ||H|| from Hermitian
    are rejected.
    """
    mat = as_matrix(h)
    if mat.shape[0] != mat.shape[1]:
        raise NotHermitian(f"matrix is {mat.shape[0]}x{mat.shape[1]}, not square")
    skew, lo, hi = _herm_extremes(mat, tol)
    if skew:
        raise NotHermitian(_NOT_HERMITIAN)
    return float(lo), float(hi)


def pinv(a, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse; singular values below pinv_cutoff * sigma_max are dropped."""
    return np.linalg.pinv(as_matrix(a), rcond=tol.pinv_cutoff)


def sv_extremes(a) -> tuple[float, float]:
    """(sigma_min, sigma_max) of a matrix."""
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    return float(s[-1]), float(s[0])


def inv(a, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse, guarded by the singularity proxy sigma_min/sigma_max >= inv_cond."""
    mat = as_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"cannot invert a {mat.shape[0]}x{mat.shape[1]} matrix")
    sigma_min, sigma_max = sv_extremes(mat)
    if sigma_max == 0.0 or sigma_min / sigma_max < tol.inv_cond:
        raise Singular(
            f"sigma_min/sigma_max = {sigma_min:.3e}/{sigma_max:.3e} below inv_cond={tol.inv_cond:g}"
        )
    return np.linalg.inv(mat)


def rel_residual(x, y) -> float:
    """||X - Y|| / max(1, ||X||, ||Y||), the uniform scale-aware equality residual."""
    mx = as_matrix(x)
    my = as_matrix(y)
    return op_norm(mx - my) / max(1.0, op_norm(mx), op_norm(my))


def approx_equal(x, y, tol: Tol = DEFAULT_TOL) -> bool:
    """Operator equality under the uniform policy ||X - Y|| <= rel_eq * max(1, ||X||, ||Y||)."""
    return rel_residual(x, y) <= tol.rel_eq
