"""Frame multipliers M = T_Phi diag(m) U_Psi and their inversion diagnostics.

The central question this module reports on: when the multiplier is
invertible, is its inverse again a multiplier built from the reciprocal
symbol and the two canonical duals? The report carries the direct comparison
plus four scalar indicators (norm identities for the inverse frame operators
and optimal-bound identities for the two induced dual frames) that the theory
ties to that question.

The indicators come in adjoint pairs, since M* = M_{conj(m), Psi, Phi}: the
second induced frame and conditions iii/iv are the first frame and i/ii of M*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Singular
from .frames import Frame, _check_shapes, _read_only, _weighted_image, canonical_dual
from .linalg import BOUNDARY_FACTOR  # noqa: F401 - the band's factor stays importable from here
from .linalg import DEFAULT_TOL, Tol, _finite, _invertible, _lu_inv, _near_boundary, _quiet, _rel_gap
from .linalg import _expect, _norm, _sv_extremes
from .symbols import Symbol, conj, reciprocal

__all__ = [
    "InvDiag",
    "Multiplier",
    "Condition",
    "Thm1Report",
    "build",
    "adjoint",
    "invert",
    "canonical_inverse_candidate",
    "dagger_frames",
    "thm1_report",
]


@dataclass(frozen=True)
class InvDiag:
    """Invertibility diagnostics of the realized d x d matrix."""

    sigma_min: float
    sigma_max: float
    invertible: bool


@dataclass(frozen=True)
class Multiplier:
    """Immutable multiplier: symbol m, left frame Phi, right frame Psi.

    However it is made (build, adjoint, dataclasses.replace), the frames must
    share d, all three must share N and the matrix must be d x d, or
    construction raises DimensionMismatch.
    """

    symbol: Symbol
    left: Frame
    right: Frame
    matrix: np.ndarray  # d x d realization
    inv_diag: InvDiag

    def __post_init__(self) -> None:
        _check_shapes((self.left, self.right), (self.symbol,))
        d = self.left.dim
        if self.matrix.shape != (d, d):
            raise DimensionMismatch(f"matrix has shape {self.matrix.shape}, expected {(d, d)}")

    @cached_property
    @_quiet
    def _inverse(self) -> tuple[np.ndarray, float]:
        """(M^{-1}, ||M M^{-1} - I||) by linalg._lu_inv, computed once; invert judges the residual per call."""
        inverse = _read_only(_lu_inv(self.matrix))
        return inverse, _norm(_finite(self.matrix @ inverse - np.eye(self.left.dim), "M M^{-1} - I"))

    @cached_property
    def _gammas(self) -> dict:
        """The Gamma RepResult built under each Tol; gamma_of fills it after invert passes."""
        return {}

    @cached_property
    def _thetas(self) -> dict:
        """The Theta RepResult built under each Tol; theta_of fills it once Gamma of the adjoint is built."""
        return {}


@dataclass(frozen=True)
class Condition:
    """One scalar comparison lhs vs rhs under the rule of linalg."""

    lhs: float
    rhs: float
    holds: bool

    @property
    def residual(self) -> float:
        """The rule's quotient |lhs - rhs| / max(1, lhs, rhs)."""
        return _rel_gap(abs(self.lhs - self.rhs), self.lhs, self.rhs)


@dataclass(frozen=True)
class Thm1Report:
    """Five indicators for inversion by the reciprocal-symbol dual multiplier.

    direct: M^{-1} compared against the multiplier of (1/m, canonical dual of
    Psi, canonical dual of Phi). cond_i/cond_ii tie the norm of S_Psi^{-1} to
    the frame induced by M^{-1}(m_n phi_n); cond_iii/cond_iv are cond_i/cond_ii
    of adjoint(M), which tie S_Phi^{-1} to (M^{-1})*(conj(m_n) psi_n).
    consistent records whether all five verdicts agree; indeterminate flags
    instances where any residual sits too close to the threshold to call.
    """

    direct_equal: bool
    direct_residual: float
    cond_i: Condition
    cond_ii: Condition
    cond_iii: Condition
    cond_iv: Condition
    consistent: bool
    indeterminate: bool

    @property
    def conditions(self) -> tuple[Condition, Condition, Condition, Condition]:
        return (self.cond_i, self.cond_ii, self.cond_iii, self.cond_iv)


@_quiet
def build(m: Symbol, phi: Frame, psi: Frame, tol: Tol = DEFAULT_TOL) -> Multiplier:
    """Realize T_Phi diag(m) U_Psi as a d x d matrix with invertibility diagnostics.

    A matrix, or its largest singular value, that overflows although m, Phi and
    Psi are finite is a NumericalOverflow (linalg's overflow rule).
    """
    _check_shapes((phi, psi), (m,))
    matrix = _finite((phi.synth * m.values[np.newaxis, :]) @ psi.analysis_op, "multiplier matrix")
    sigma_min, sigma_max = _sv_extremes(matrix, "largest singular value of a multiplier matrix")
    invertible = _invertible(sigma_min, sigma_max, tol)
    diag = InvDiag(sigma_min=sigma_min, sigma_max=sigma_max, invertible=invertible)
    return Multiplier(symbol=m, left=phi, right=psi, matrix=_read_only(matrix), inv_diag=diag)


def adjoint(mult: Multiplier) -> Multiplier:
    """The adjoint M* = T_Psi diag(conj(m)) U_Phi, sharing mult's diagnostics and inverse.

    Its inverse memo holds (M^{-1})* and the residual of M rather than a fresh
    inverse of M*, so invert treats both alike and keeps the bits of M^{-1}.
    """
    _expect(mult, Multiplier, "mult")
    matrix = _read_only(mult.matrix.conj().T)
    adj = Multiplier(conj(mult.symbol), mult.right, mult.left, matrix, mult.inv_diag)
    if mult.inv_diag.invertible:
        inverse, residual = mult._inverse
        adj.__dict__["_inverse"] = (_read_only(inverse.conj().T), residual)
    return adj


def invert(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Inverse of the realized matrix; refuses ill-conditioned multipliers."""
    _expect(mult, Multiplier, "mult")
    if not mult.inv_diag.invertible:
        raise Singular(
            f"multiplier not invertible: sigma_min/sigma_max = "
            f"{mult.inv_diag.sigma_min:.3e}/{mult.inv_diag.sigma_max:.3e}"
        )
    inverse, residual = mult._inverse
    if residual > tol.rel_eq:
        raise Singular(f"inverse residual {residual:.3e} exceeds rel_eq={tol.rel_eq:g}")
    return inverse


def _inverse_norm(mult: Multiplier, tol: Tol) -> float:
    """||M^{-1}|| = 1/sigma_min(M) from build's SVD, once invert(mult, tol) passes."""
    invert(mult, tol)
    return 1.0 / mult.inv_diag.sigma_min


@_quiet
def _inverse_formula_left(mult: Multiplier, tol: Tol) -> np.ndarray:
    """T_{Psi~} diag(1/m) for Psi~ the canonical dual of Psi: mult(1/m, Psi~, F) is this times U_F."""
    inv_symbol = reciprocal(mult.symbol)  # ZeroEntry when m is not semi-normalized
    psi_tilde = canonical_dual(mult.right, tol).frame
    return _finite(psi_tilde.synth * inv_symbol.values[np.newaxis, :], "T_{Psi~} diag(1/m)")


@_quiet
def canonical_inverse_candidate(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Matrix of the multiplier (1/m, canonical dual of Psi, canonical dual of Phi).

    This is the would-be inverse; whether it actually inverts the multiplier
    is exactly what thm1_report decides. It is a NumericalOverflow where a
    product of finite factors overflows (linalg's overflow rule).
    """
    _expect(mult, Multiplier, "mult")
    left = _inverse_formula_left(mult, tol)
    return _finite(left @ canonical_dual(mult.left, tol).frame.analysis_op, "canonical inverse candidate")


def _dagger(mult: Multiplier, tol: Tol) -> Frame:
    """The frame (M^{-1}(m_n phi_n))_n, a dual of the right frame: the duality product is M^{-1}M."""
    return _weighted_image(invert(mult, tol), mult.left, mult.symbol, tol)


def dagger_frames(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> tuple[Frame, Frame]:
    """The two frames induced by the inverse: (M^{-1}(m_n phi_n))_n and ((M^{-1})*(conj(m_n) psi_n))_n.

    The second is the first of adjoint(mult), so the first is a dual of Psi
    and the second a dual of Phi.
    """
    _expect(mult, Multiplier, "mult")
    return _dagger(mult, tol), _dagger(adjoint(mult), tol)


def _scalar_condition(lhs: float, rhs: float, tol: Tol) -> Condition:
    return Condition(lhs=lhs, rhs=rhs, holds=_rel_gap(abs(lhs - rhs), lhs, rhs) <= tol.rel_eq)


@_quiet
def _side_conditions(mult: Multiplier, dagger: Frame, tol: Tol) -> tuple[Condition, Condition]:
    """Conditions i and ii: ||S_Psi^{-1}|| = 1/lambda_min(S_Psi) against ||M^{-1} T_{|m|Phi}||^2 and B_dagger.

    dagger is _dagger(mult, tol); on adjoint(mult) these are conditions iii and iv.
    """
    inv_norm_s = 1.0 / mult.right.bounds[0]
    weighted = mult.left.synth * np.abs(mult.symbol.values)[np.newaxis, :]
    product = _finite(invert(mult, tol) @ weighted, "M^{-1} T_{|m|Phi}")
    return (
        _scalar_condition(inv_norm_s, _norm(product) ** 2, tol),
        _scalar_condition(inv_norm_s, dagger.bounds[1], tol),
    )


@_quiet
def thm1_report(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> Thm1Report:
    """Evaluate the five inversion indicators on an invertible multiplier.

    Conditions iii and iv are conditions i and ii of adjoint(mult).
    """
    _expect(mult, Multiplier, "mult")
    minv = invert(mult, tol)
    candidate = canonical_inverse_candidate(mult, tol)
    direct_residual = _norm(_finite(minv - candidate, "M^{-1} - candidate"))
    # rel_residual(minv, candidate), reusing ||minv - candidate|| and reading ||minv|| as 1/sigma_min
    direct_norm_residual = _rel_gap(direct_residual, 1.0 / mult.inv_diag.sigma_min, _norm(candidate))
    direct_equal = direct_norm_residual <= tol.rel_eq

    adj = adjoint(mult)
    psi_dagger, phi_dagger = _dagger(mult, tol), _dagger(adj, tol)  # dagger_frames, sharing adj
    cond_i, cond_ii = _side_conditions(mult, psi_dagger, tol)
    cond_iii, cond_iv = _side_conditions(adj, phi_dagger, tol)

    conditions = (cond_i, cond_ii, cond_iii, cond_iv)
    verdicts = [direct_equal, *(c.holds for c in conditions)]
    residuals = [direct_norm_residual, *(c.residual for c in conditions)]
    return Thm1Report(
        direct_equal=direct_equal,
        direct_residual=direct_residual,
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        cond_iv=cond_iv,
        consistent=all(verdicts) or not any(verdicts),
        indeterminate=any(_near_boundary(r, tol) for r in residuals),
    )
