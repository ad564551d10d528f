"""Dual-free representations of the inverse of a multiplier.

For an invertible multiplier M with semi-normalized symbol, the inverse can
be written against ANY dual frame of the left frame (or of the right frame)
at the price of one correction operator:

    M^{-1} = mult(1/m, canonical dual of Psi, Phi^d) + Gamma* U_{Phi^d}
    M^{-1} = mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} Theta

Gamma and Theta are the unique operators making these hold for every dual.
Gamma vanishes exactly when the right frame is equivalent to the
symbol-scaled left frame, which is also exactly when the correction-free
formula holds for every dual; equivalence_criterion packages that three-way
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidDual
from .frames import (
    DualFrame,
    Frame,
    _check_duality,
    _dual_family,
    canonical_dual,
    equivalence_map,
    scale_by_symbol,
)
from .linalg import DEFAULT_TOL, Tol, _adjoint, _op_norms, op_norm
from .multiplier import Multiplier, invert
from .symbols import reciprocal

__all__ = [
    "RepResult",
    "EquivalenceVerdict",
    "gamma_of",
    "verify_gamma_decomposition",
    "theta_of",
    "verify_theta_decomposition",
    "equivalence_criterion",
    "sample_duals",
]

# Dual-frame sampling policy for universally quantified checks: the canonical
# dual plus this many random duals with unit-operator-norm W parameters.
DUAL_SAMPLE_COUNT = 20
_DUAL_SAMPLE_SEED = 2026


@dataclass(frozen=True)
class RepResult:
    """A correction operator together with its diagnostic residuals.

    op is N x d (it maps vectors to coefficient sequences). The
    annihilation_residual is the norm of the bare synthesis composed with op;
    masked_annihilation_residual inserts the symbol diagonal between the two
    (conj(m) for Gamma, m for Theta), which is the combination the inverse
    algebra actually cancels. decomposition_residuals is filled by the
    verify_* pass, one (dual index, residual) pair per sampled dual.
    """

    op: np.ndarray
    kind: str  # "Gamma" or "Theta"
    annihilation_residual: float
    masked_annihilation_residual: float
    decomposition_residuals: tuple[tuple[int, float], ...] = ()


class EquivalenceVerdict(NamedTuple):
    """Three booleans that must agree on every clear-margin instance."""

    equivalent: bool
    gamma_zero: bool
    all_duals_formula: bool


def sample_duals(
    f: Frame,
    count: int = DUAL_SAMPLE_COUNT,
    rng: np.random.Generator | None = None,
    tol: Tol = DEFAULT_TOL,
) -> list[DualFrame]:
    """Canonical dual plus `count` random duals with unit-op-norm W matrices.

    W_k is drawn as real part then imaginary part, dual by dual, from one
    (count, 2, d, N) block of the stream; the random duals are built and
    checked as one stack.
    """
    if rng is None:
        rng = np.random.default_rng(_DUAL_SAMPLE_SEED)
    canonical = canonical_dual(f, tol)
    draws = rng.standard_normal((max(count, 0), 2, f.dim, f.count))
    w = draws[:, 0] + 1j * draws[:, 1]
    norms = _op_norms(w)
    w = w / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis, np.newaxis]
    return [canonical, *_dual_family(f, w, tol)]


def _dual_stack(duals: list[DualFrame], parent: Frame, tol: Tol) -> np.ndarray:
    """The (K, d, N) synthesis stack of the supplied duals, each re-checked as a dual of parent."""
    shapes = {dual.frame.synth.shape for dual in duals}
    if shapes != {(parent.dim, parent.count)}:
        raise InvalidDual(
            f"dual shapes {sorted(shapes)} do not match parent {parent.dim}x{parent.count}"
        )
    stack = np.stack([dual.frame.synth for dual in duals])
    _check_duality(stack, parent, tol)
    return stack


def _inverse_formula_left(mult: Multiplier, tol: Tol) -> np.ndarray:
    """T_{Psi~} diag(1/m) for Psi~ the canonical dual of Psi.

    mult(1/m, Psi~, Phi^d) is this matrix times U_{Phi^d}.
    """
    inv_symbol = reciprocal(mult.symbol)  # ZeroEntry guard
    psi_tilde = canonical_dual(mult.right, tol).frame
    return psi_tilde.synth * inv_symbol.values[np.newaxis, :]


def _formula_residuals(
    mult: Multiplier, minv: np.ndarray, rng: np.random.Generator, tol: Tol
) -> np.ndarray:
    """||M^{-1} - mult(1/m, canonical dual of Psi, Phi^d)|| per dual Phi^d of the left frame.

    The duals are sample_duals(left frame, DUAL_SAMPLE_COUNT, rng).
    """
    left = _inverse_formula_left(mult, tol)
    duals = sample_duals(mult.left, DUAL_SAMPLE_COUNT, rng, tol)
    return _op_norms(minv - left @ _adjoint(np.stack([dual.frame.synth for dual in duals])))


def gamma_of(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> RepResult:
    """Gamma = U_Phi (M^{-1})* - diag(1/conj(m)) U_Psi S_Psi^{-1}, as N x d.

    Equivalent characterization: Gamma* is the gap between M^{-1} T_Phi and
    S_Psi^{-1} T_Psi diag(1/m).
    """
    minv = invert(mult, tol)
    phi, psi = mult.left, mult.right
    m = mult.symbol.values
    inv_conj_m = np.conj(reciprocal(mult.symbol).values)  # 1/conj(m); ZeroEntry guard
    dual_analysis = psi._canonical_synth.conj().T  # U_Psi S_Psi^{-1}
    gamma = phi.analysis_op @ minv.conj().T - inv_conj_m[:, np.newaxis] * dual_analysis
    return RepResult(
        op=gamma,
        kind="Gamma",
        annihilation_residual=op_norm(psi.synth @ gamma),
        masked_annihilation_residual=op_norm(
            (psi.synth * np.conj(m)[np.newaxis, :]) @ gamma
        ),
    )


def theta_of(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> RepResult:
    """Theta = U_Psi M^{-1} - diag(1/m) U_Phi S_Phi^{-1}, as N x d."""
    minv = invert(mult, tol)
    phi, psi = mult.left, mult.right
    m = mult.symbol.values
    inv_m = reciprocal(mult.symbol).values  # ZeroEntry guard
    dual_analysis = phi._canonical_synth.conj().T  # U_Phi S_Phi^{-1}
    theta = psi.analysis_op @ minv - inv_m[:, np.newaxis] * dual_analysis
    return RepResult(
        op=theta,
        kind="Theta",
        annihilation_residual=op_norm(phi.synth @ theta),
        masked_annihilation_residual=op_norm((phi.synth * m[np.newaxis, :]) @ theta),
    )


def verify_gamma_decomposition(
    mult: Multiplier,
    g: RepResult,
    duals: list[DualFrame],
    tol: Tol = DEFAULT_TOL,
) -> RepResult:
    """Residuals of M^{-1} = mult(1/m, canonical dual of Psi, Phi^d) + Gamma* U_{Phi^d}.

    One residual per supplied dual of the left frame; each dual is first
    re-verified against that frame.
    """
    minv = invert(mult, tol)
    left = _inverse_formula_left(mult, tol)
    if not duals:
        return replace(g, decomposition_residuals=())
    dual_analysis = _adjoint(_dual_stack(duals, mult.left, tol))
    reconstructed = left @ dual_analysis + g.op.conj().T @ dual_analysis
    residuals = _op_norms(minv - reconstructed)
    return replace(g, decomposition_residuals=tuple(enumerate(residuals.tolist())))


def verify_theta_decomposition(
    mult: Multiplier,
    t: RepResult,
    duals: list[DualFrame],
    tol: Tol = DEFAULT_TOL,
) -> RepResult:
    """Residuals of M^{-1} = mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} Theta."""
    minv = invert(mult, tol)
    inv_symbol = reciprocal(mult.symbol)
    phi_tilde = canonical_dual(mult.left, tol).frame
    if not duals:
        return replace(t, decomposition_residuals=())
    stack = _dual_stack(duals, mult.right, tol)
    reconstructed = (stack * inv_symbol.values[np.newaxis, np.newaxis, :]) @ phi_tilde.analysis_op
    reconstructed = reconstructed + stack @ t.op
    residuals = _op_norms(minv - reconstructed)
    return replace(t, decomposition_residuals=tuple(enumerate(residuals.tolist())))


def equivalence_criterion(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> EquivalenceVerdict:
    """Three equivalent readings of 'the right frame is the symbol-scaled left frame up to an invertible map'.

    equivalent: an invertible V with V(m_n phi_n) = psi_n exists.
    gamma_zero: the Gamma correction vanishes.
    all_duals_formula: the correction-free inverse formula holds against the
    canonical dual and a sample of random duals of the left frame.

    Residual thresholds are scaled by max(1, ||M^{-1}||).
    """
    minv = invert(mult, tol)
    scale = max(1.0, op_norm(minv))

    scaled = scale_by_symbol(mult.left, mult.symbol, tol)
    equivalent = equivalence_map(scaled, mult.right, tol) is not None

    g = gamma_of(mult, tol)
    gamma_zero = op_norm(g.op) <= tol.rel_eq * scale

    residuals = _formula_residuals(mult, minv, np.random.default_rng(_DUAL_SAMPLE_SEED), tol)
    all_duals = not np.any(residuals > tol.rel_eq * scale)
    return EquivalenceVerdict(
        equivalent=equivalent, gamma_zero=gamma_zero, all_duals_formula=all_duals
    )
