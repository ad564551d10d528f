"""Dual-free representations of the inverse of a multiplier.

For an invertible multiplier M with semi-normalized symbol, the inverse can
be written against ANY dual frame of the left frame (or of the right frame)
at the price of one correction operator:

    M^{-1} = mult(1/m, canonical dual of Psi, Phi^d) + Gamma* U_{Phi^d}
    M^{-1} = mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} Theta

Gamma and Theta are the unique operators making these hold for every dual,
and Theta is the Gamma of the adjoint multiplier M* = mult(conj(m), Psi, Phi).
Gamma vanishes exactly when the right frame is equivalent to the
symbol-scaled left frame, which is also exactly when the correction-free
formula holds for every dual; equivalence_criterion packages that three-way
agreement on the seed-2026 sample of duals; its core _equivalence takes a
callable that returns the family's synthesis stack, so the suites pass the
stack of their own (seed, trial, 5) family.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidDual
from .frames import (
    DualFrame,
    Frame,
    _check_duality,
    _dual_family,
    _read_only,
    _scaled,
    canonical_dual,
    equivalence_map,
)
from .linalg import DEFAULT_TOL, Tol, _adjoint, _op_norms, op_norm
from .multiplier import Multiplier, _inverse_formula_left, adjoint, invert
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

    @cached_property
    def _op_norm(self) -> float:
        """||op||, computed once; gamma_of's memo keeps one per multiplier and Tol."""
        return op_norm(self.op)


class EquivalenceVerdict(NamedTuple):
    """Three booleans that must agree on every clear-margin instance."""

    equivalent: bool
    gamma_zero: bool
    all_duals_formula: bool


def _unit_w(rng: np.random.Generator, count: int, d: int, n: int) -> np.ndarray:
    """A read-only (count, d, N) stack of unit-op-norm W_k, drawn real then imaginary part per W_k."""
    draws = rng.standard_normal((count, 2, d, n))
    w = draws[:, 0] + 1j * draws[:, 1]
    norms = _op_norms(w)
    return _read_only(w / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis, np.newaxis])


def sample_duals(
    f: Frame,
    count: int = DUAL_SAMPLE_COUNT,
    rng: np.random.Generator | None = None,
    tol: Tol = DEFAULT_TOL,
) -> list[DualFrame]:
    """Canonical dual plus `count` random duals with unit-op-norm W matrices (see _unit_w).

    Without rng the W matrices come from a fresh seed-2026 stream. count must
    be a non-negative integer (numpy integers too, bool not).
    """
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    canonical = canonical_dual(f, tol)
    if rng is None:
        rng = np.random.default_rng(_DUAL_SAMPLE_SEED)
    w = _unit_w(rng, count, f.dim, f.count)
    return [canonical, *_dual_family(f, w, tol)]


def gamma_of(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> RepResult:
    """Gamma = U_Phi (M^{-1})* - diag(1/conj(m)) U_Psi S_Psi^{-1}, as N x d.

    Equivalent characterization: Gamma* is the gap between M^{-1} T_Phi and
    S_Psi^{-1} T_Psi diag(1/m).

    Built once per multiplier and Tol (its op is read-only) and stored only
    after invert(mult, tol) passes, so a Tol the inverse fails raises
    Singular on every call.
    """
    cached = mult._gammas.get(tol)
    if cached is not None:
        return cached
    minv = invert(mult, tol)
    phi, psi = mult.left, mult.right
    m = mult.symbol.values
    inv_conj_m = np.conj(reciprocal(mult.symbol).values)  # 1/conj(m); ZeroEntry guard
    dual_analysis = psi._canonical_synth.conj().T  # U_Psi S_Psi^{-1}
    gamma = phi.analysis_op @ minv.conj().T - inv_conj_m[:, np.newaxis] * dual_analysis
    result = RepResult(
        op=_read_only(gamma),
        kind="Gamma",
        annihilation_residual=op_norm(psi.synth @ gamma),
        masked_annihilation_residual=op_norm(
            (psi.synth * np.conj(m)[np.newaxis, :]) @ gamma
        ),
    )
    mult._gammas[tol] = result
    return result


def theta_of(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> RepResult:
    """Theta = U_Psi M^{-1} - diag(1/m) U_Phi S_Phi^{-1}, as N x d: the Gamma of adjoint(mult)."""
    return replace(gamma_of(adjoint(mult), tol), kind="Theta")


def _decompose(
    mult: Multiplier, kind: str, ops: list[np.ndarray], stack: np.ndarray, tol: Tol
) -> list[tuple[tuple[int, float], ...]]:
    """verify_*_decomposition's (dual index, residual) pairs for each op of the given kind.

    stack is the (K, d, N) synthesis stack of the duals, re-checked here as
    duals of the kind's frame. The op-free term is formed once for all ops.
    Each op's gaps minv - (formula + correction) are built in place in one
    preallocated (len(ops), K, d, d) array, from which one stacked SVD takes
    all residuals.
    """
    minv = invert(mult, tol)
    inv_m = reciprocal(mult.symbol).values  # ZeroEntry guard
    gamma = kind == "Gamma"
    tilde = canonical_dual(mult.right if gamma else mult.left, tol).frame
    if not len(stack):
        return [() for _ in ops]
    _check_duality(stack, mult.left if gamma else mult.right, tol)
    if gamma:  # mult(1/m, canonical dual of Psi, Phi^d) + op* U_{Phi^d}
        dual_analysis = _adjoint(stack)
        formula = (tilde.synth * inv_m[np.newaxis, :]) @ dual_analysis
        correction = lambda op: op.conj().T @ dual_analysis
    else:  # mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} op
        formula = (stack * inv_m[np.newaxis, np.newaxis, :]) @ tilde.analysis_op
        correction = lambda op: stack @ op
    gaps = np.empty((len(ops), *formula.shape), dtype=np.result_type(minv, formula))
    for gap, op in zip(gaps, ops):
        np.add(formula, correction(op), out=gap)  # the correction is freed here
        np.subtract(minv, gap, out=gap)
    residuals = _op_norms(gaps)
    return [tuple(enumerate(row)) for row in residuals.tolist()]


def _decomposition_residuals(
    mult: Multiplier, kind: str, ops: list[np.ndarray], duals: list[DualFrame], tol: Tol
) -> list[tuple[tuple[int, float], ...]]:
    """_decompose over the synthesis stack of the supplied duals of the kind's frame."""
    parent = mult.left if kind == "Gamma" else mult.right
    shapes = {dual.frame.synth.shape for dual in duals}
    if shapes - {(parent.dim, parent.count)}:
        raise InvalidDual(
            f"dual shapes {sorted(shapes)} do not match parent {parent.dim}x{parent.count}"
        )
    synths = [dual.frame.synth for dual in duals]
    stack = np.stack(synths) if synths else np.empty((0, parent.dim, parent.count), np.complex128)
    return _decompose(mult, kind, ops, stack, tol)


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
    (residuals,) = _decomposition_residuals(mult, "Gamma", [g.op], duals, tol)
    return replace(g, decomposition_residuals=residuals)


def verify_theta_decomposition(
    mult: Multiplier,
    t: RepResult,
    duals: list[DualFrame],
    tol: Tol = DEFAULT_TOL,
) -> RepResult:
    """Residuals of M^{-1} = mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} Theta."""
    (residuals,) = _decomposition_residuals(mult, "Theta", [t.op], duals, tol)
    return replace(t, decomposition_residuals=residuals)


def _equivalence(
    mult: Multiplier, tol: Tol, duals: Callable[[], np.ndarray]
) -> tuple[EquivalenceVerdict, np.ndarray]:
    """equivalence_criterion, and each dual's formula residual, against duals of the left frame.

    duals() returns their (K, d, N) synthesis stack. It is called only once
    the inverse, the equivalence map and Gamma have passed, so their errors
    come first.
    """
    minv = invert(mult, tol)
    scale = max(1.0, mult._inverse_op_norm)

    scaled = _scaled(mult.left, mult.symbol, tol)  # build checked the shapes
    equivalent = equivalence_map(scaled, mult.right, tol) is not None

    gamma_zero = gamma_of(mult, tol)._op_norm <= tol.rel_eq * scale

    # ||M^{-1} - mult(1/m, canonical dual of Psi, Phi^d)|| per dual Phi^d
    residuals = _op_norms(minv - _inverse_formula_left(mult, tol) @ _adjoint(duals()))
    all_duals = not np.any(residuals > tol.rel_eq * scale)
    return EquivalenceVerdict(equivalent, gamma_zero, all_duals), residuals


def equivalence_criterion(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> EquivalenceVerdict:
    """Three equivalent readings of 'the right frame is the symbol-scaled left frame up to an invertible map'.

    equivalent: an invertible V with V(m_n phi_n) = psi_n exists.
    gamma_zero: the Gamma correction vanishes.
    all_duals_formula: the correction-free inverse formula holds against the
    canonical dual and the seed-2026 sample of random duals of the left frame.

    Residual thresholds are scaled by max(1, ||M^{-1}||).
    """
    duals = lambda: np.stack([dual.frame.synth for dual in sample_duals(mult.left, tol=tol)])
    return _equivalence(mult, tol, duals)[0]
