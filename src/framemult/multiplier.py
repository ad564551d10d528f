"""Frame multipliers M = T_Phi diag(m) U_Psi and their inversion diagnostics.

The central question this module reports on: when the multiplier is
invertible, is its inverse again a multiplier built from the reciprocal
symbol and the two canonical duals? The report carries the direct comparison
plus four scalar indicators (norm identities for the inverse frame operators
and optimal-bound identities for the two induced dual frames) that the theory
ties to that question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Singular
from .frames import Frame, canonical_dual, new_frame
from .linalg import DEFAULT_TOL, Tol, op_norm, rel_residual
from .symbols import Symbol, reciprocal

__all__ = [
    "InvDiag",
    "Multiplier",
    "Condition",
    "Thm1Report",
    "build",
    "invert",
    "canonical_inverse_candidate",
    "dagger_frames",
    "thm1_report",
]

# A condition residual in (rel_eq, BOUNDARY_FACTOR * rel_eq] sits too close to
# the equality threshold to trust either verdict; such instances are flagged
# indeterminate and excluded from agreement statistics.
BOUNDARY_FACTOR = 11.0


@dataclass(frozen=True)
class InvDiag:
    """Invertibility diagnostics of the realized d x d matrix."""

    sigma_min: float
    sigma_max: float
    invertible: bool


@dataclass(frozen=True)
class Multiplier:
    """Immutable multiplier: symbol m, left frame Phi, right frame Psi."""

    symbol: Symbol
    left: Frame
    right: Frame
    matrix: np.ndarray  # d x d realization
    inv_diag: InvDiag

    @cached_property
    def _inverse(self) -> tuple[np.ndarray, float]:
        """(M^{-1}, ||M M^{-1} - I||), computed once; invert judges the residual per call."""
        inverse = np.linalg.inv(self.matrix)
        inverse.setflags(write=False)
        return inverse, op_norm(self.matrix @ inverse - np.eye(self.left.dim))


@dataclass(frozen=True)
class Condition:
    """One scalar comparison lhs vs rhs under the relative equality policy."""

    lhs: float
    rhs: float
    holds: bool

    @property
    def residual(self) -> float:
        """|lhs - rhs| / max(1, lhs, rhs)."""
        return abs(self.lhs - self.rhs) / max(1.0, self.lhs, self.rhs)


@dataclass(frozen=True)
class Thm1Report:
    """Five indicators for inversion by the reciprocal-symbol dual multiplier.

    direct: M^{-1} compared against the multiplier of (1/m, canonical dual of
    Psi, canonical dual of Phi). cond_i/cond_ii tie the norm of S_Psi^{-1} to
    the frame induced by M^{-1}(m_n phi_n); cond_iii/cond_iv mirror that with
    the roles of the frames exchanged and the adjoint inverse. consistent
    records whether all five verdicts agree; indeterminate flags instances
    where any residual sits too close to the threshold to call.
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


def build(m: Symbol, phi: Frame, psi: Frame, tol: Tol = DEFAULT_TOL) -> Multiplier:
    """Realize T_Phi diag(m) U_Psi as a d x d matrix with invertibility diagnostics."""
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"frame dimensions differ: {phi.dim} vs {psi.dim}")
    if not (m.count == phi.count == psi.count):
        raise DimensionMismatch(
            f"lengths differ: symbol {m.count}, left frame {phi.count}, right frame {psi.count}"
        )
    matrix = (phi.synth * m.values[np.newaxis, :]) @ psi.analysis_op
    s = np.linalg.svd(matrix, compute_uv=False)
    sigma_min, sigma_max = float(s[-1]), float(s[0])
    invertible = sigma_max > 0.0 and sigma_min / sigma_max >= tol.inv_cond
    matrix = matrix.copy()
    matrix.setflags(write=False)
    return Multiplier(
        symbol=m,
        left=phi,
        right=psi,
        matrix=matrix,
        inv_diag=InvDiag(sigma_min=sigma_min, sigma_max=sigma_max, invertible=invertible),
    )


def invert(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Inverse of the realized matrix; refuses ill-conditioned multipliers."""
    if not mult.inv_diag.invertible:
        raise Singular(
            f"multiplier not invertible: sigma_min/sigma_max = "
            f"{mult.inv_diag.sigma_min:.3e}/{mult.inv_diag.sigma_max:.3e}"
        )
    inverse, residual = mult._inverse
    if residual > tol.rel_eq:
        raise Singular(f"inverse residual {residual:.3e} exceeds rel_eq={tol.rel_eq:g}")
    return inverse


def canonical_inverse_candidate(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Matrix of the multiplier (1/m, canonical dual of Psi, canonical dual of Phi).

    This is the would-be inverse; whether it actually inverts the multiplier
    is exactly what thm1_report decides.
    """
    inv_symbol = reciprocal(mult.symbol)  # ZeroEntry when m is not semi-normalized
    psi_tilde = canonical_dual(mult.right, tol).frame
    phi_tilde = canonical_dual(mult.left, tol).frame
    return build(inv_symbol, psi_tilde, phi_tilde, tol).matrix


def dagger_frames(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> tuple[Frame, Frame]:
    """The two frames induced by the inverse: (M^{-1}(m_n phi_n))_n and ((M^{-1})*(conj(m_n) psi_n))_n.

    The first is always a dual of Psi and the second a dual of Phi: the
    duality products collapse to M^{-1}M and (M*)^{-1}M* by construction.
    """
    minv = invert(mult, tol)
    m = mult.symbol.values
    psi_dagger = new_frame(minv @ (mult.left.synth * m[np.newaxis, :]), tol)
    phi_dagger = new_frame(
        minv.conj().T @ (mult.right.synth * np.conj(m)[np.newaxis, :]), tol
    )
    return psi_dagger, phi_dagger


def _scalar_condition(lhs: float, rhs: float, tol: Tol) -> Condition:
    holds = abs(lhs - rhs) <= tol.rel_eq * max(1.0, lhs, rhs)
    return Condition(lhs=lhs, rhs=rhs, holds=holds)


def _near_boundary(residual: float, tol: Tol) -> bool:
    return tol.rel_eq < residual <= BOUNDARY_FACTOR * tol.rel_eq


def thm1_report(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> Thm1Report:
    """Evaluate the five inversion indicators on an invertible multiplier.

    Inverse frame-operator norms are computed as 1/lambda_min of the forward
    operator, never by explicit inversion.
    """
    minv = invert(mult, tol)
    candidate = canonical_inverse_candidate(mult, tol)
    direct_residual = op_norm(minv - candidate)
    direct_norm_residual = rel_residual(minv, candidate)
    direct_equal = direct_norm_residual <= tol.rel_eq

    phi, psi = mult.left, mult.right
    abs_m = np.abs(mult.symbol.values)
    psi_dagger, phi_dagger = dagger_frames(mult, tol)

    inv_norm_s_psi = 1.0 / psi.bounds[0]
    inv_norm_s_phi = 1.0 / phi.bounds[0]

    cond_i = _scalar_condition(
        inv_norm_s_psi, op_norm(minv @ (phi.synth * abs_m[np.newaxis, :])) ** 2, tol
    )
    cond_ii = _scalar_condition(inv_norm_s_psi, psi_dagger.bounds[1], tol)
    cond_iii = _scalar_condition(
        inv_norm_s_phi, op_norm(minv.conj().T @ (psi.synth * abs_m[np.newaxis, :])) ** 2, tol
    )
    cond_iv = _scalar_condition(inv_norm_s_phi, phi_dagger.bounds[1], tol)

    verdicts = [direct_equal, cond_i.holds, cond_ii.holds, cond_iii.holds, cond_iv.holds]
    residuals = [
        direct_norm_residual,
        cond_i.residual,
        cond_ii.residual,
        cond_iii.residual,
        cond_iv.residual,
    ]
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
