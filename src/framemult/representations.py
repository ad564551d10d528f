"""Dual-free representations of the inverse of a multiplier.

For an invertible multiplier M with semi-normalized symbol, the inverse can
be written against ANY dual frame of the left frame (or of the right frame)
at the price of one correction operator:

    M^{-1} = mult(1/m, canonical dual of Psi, Phi^d) + Gamma* U_{Phi^d}
    M^{-1} = mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} Theta

Gamma and Theta are the unique operators making these hold for every dual,
and Theta is the Gamma of the adjoint multiplier M* = mult(conj(m), Psi, Phi),
so every Theta reading here is the Gamma reading of adjoint(M).
Gamma vanishes exactly when the right frame is equivalent to the
symbol-scaled left frame, which is also exactly when the correction-free
formula holds for every dual; equivalence_criterion packages that three-way
agreement.

"For every dual" is decided exactly, not on a sample. Every dual of Phi has
U_{Phi^d} = U_Phi S_Phi^{-1} + P W* for a d x N matrix W, where P is the
projection onto ker T_Phi. For a correction C (Gamma, or 0 for the
correction-free formula) write L = T_{Psi~} diag(1/m) + C*. The residual
against the dual of W is then R0 - K W*, with R0 = M^{-1} - L U_Phi S_Phi^{-1}
(the canonical dual's residual) and K = L P, and over ||W|| <= 1 its largest
norm lies in [max(||R0||, ||K||), ||R0|| + ||K||]. _certificate gives the
pair. The upper end is the sound reading of a claim for every dual; the
lower end is reached by explicit duals (W = 0 and W = +-x y* with y, x from
K's top singular pair), so it is the sound reading of a failure for some
dual. sample_duals and verify_*_decomposition keep explicit families of duals
for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgument, InvalidDual
from .frames import (
    DualFrame,
    Frame,
    _check_dual,
    _dual,
    _read_only,
    _scaled,
    canonical_dual,
    equivalence_map,
)
from .linalg import DEFAULT_TOL, Tol, _expect, _finite, _is_integer, _norm, _quiet, _rel_gap
from .multiplier import Multiplier, _inverse_formula_left, _inverse_norm, adjoint, invert
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

# sample_duals' default family: the canonical dual plus this many random duals
# with unit-operator-norm W parameters (no suite samples duals; see _certificate).
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
    verify_* pass, one (dual index, residual) pair per supplied dual.
    """

    op: np.ndarray
    kind: str  # "Gamma" or "Theta"
    annihilation_residual: float
    masked_annihilation_residual: float
    decomposition_residuals: tuple[tuple[int, float], ...] = ()

    @cached_property
    def _op_norm(self) -> float:
        """||op||, computed once; gamma_of's memo keeps one per multiplier and Tol."""
        return _norm(self.op)


class EquivalenceVerdict(NamedTuple):
    """Three booleans that must agree on every clear-margin instance."""

    equivalent: bool
    gamma_zero: bool
    all_duals_formula: bool


def _unit_w(rng: np.random.Generator, count: int, d: int, n: int) -> np.ndarray:
    """A read-only (count, d, N) block of W_k, each drawn real then imaginary part and scaled to unit op norm."""
    draws = rng.standard_normal((count, 2, d, n))
    w = draws[:, 0] + 1j * draws[:, 1]
    for w_k in w:
        norm = _norm(w_k)
        if norm > 0.0:
            w_k /= norm
    return _read_only(w)


def sample_duals(
    f: Frame,
    count: int = DUAL_SAMPLE_COUNT,
    rng: np.random.Generator | None = None,
    tol: Tol = DEFAULT_TOL,
) -> list[DualFrame]:
    """Canonical dual plus `count` random duals with unit-op-norm W matrices (see _unit_w).

    Without rng the W matrices come from a fresh seed-2026 stream. count must
    be a non-negative integer (numpy integers too, bool not), and rng a numpy
    Generator or None.
    """
    if not _is_integer(count) or count < 0:
        raise InvalidArgument(f"count must be a non-negative integer, got {count!r}")
    if not (rng is None or isinstance(rng, np.random.Generator)):
        raise InvalidArgument(f"rng must be a numpy Generator or None, got {type(rng).__name__}")
    canonical = canonical_dual(f, tol)
    if rng is None:
        rng = np.random.default_rng(_DUAL_SAMPLE_SEED)
    return [canonical, *(_dual(f, w, tol) for w in _unit_w(rng, count, f.dim, f.count))]


@_quiet
def gamma_of(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> RepResult:
    """Gamma = U_Phi (M^{-1})* - diag(1/conj(m)) U_Psi S_Psi^{-1}, as N x d.

    Equivalent characterization: Gamma* is the gap between M^{-1} T_Phi and
    S_Psi^{-1} T_Psi diag(1/m).

    Built once per multiplier and Tol (its op is read-only) and stored only
    after invert(mult, tol) passes, so a Tol the inverse fails raises
    Singular on every call. Gamma and both annihilation products are formed
    under linalg's overflow rule: one that is not finite is a NumericalOverflow.
    """
    _expect(mult, Multiplier, "mult")
    cached = mult._gammas.get(tol)
    if cached is not None:
        return cached
    minv = invert(mult, tol)
    phi, psi = mult.left, mult.right
    m = mult.symbol.values
    inv_conj_m = np.conj(reciprocal(mult.symbol).values)  # 1/conj(m); ZeroEntry guard
    dual_analysis = psi._canonical_synth.conj().T  # U_Psi S_Psi^{-1}
    gamma = _finite(phi.analysis_op @ minv.conj().T - inv_conj_m[:, np.newaxis] * dual_analysis, "Gamma")
    masked = (psi.synth * np.conj(m)[np.newaxis, :]) @ gamma
    result = RepResult(
        op=_read_only(gamma),
        kind="Gamma",
        annihilation_residual=_norm(_finite(psi.synth @ gamma, "T_Psi Gamma")),
        masked_annihilation_residual=_norm(_finite(masked, "T_Psi diag(conj m) Gamma")),
    )
    mult._gammas[tol] = result
    return result


def theta_of(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> RepResult:
    """Theta = U_Psi M^{-1} - diag(1/m) U_Phi S_Phi^{-1}, as N x d: the Gamma of adjoint(mult).

    Built once per multiplier and Tol, like Gamma: adjoint(mult) is a fresh
    multiplier with an empty Gamma memo, so mult keeps the result, which
    refers to nothing that refers back to mult.
    """
    _expect(mult, Multiplier, "mult")
    cached = mult._thetas.get(tol)
    if cached is None:
        cached = mult._thetas[tol] = replace(gamma_of(adjoint(mult), tol), kind="Theta")
    return cached


@_quiet
def _certificate(mult: Multiplier, correction: np.ndarray | None, tol: Tol) -> tuple[float, float]:
    """(||R0||, ||K||) for M^{-1} against every dual of the left frame with correction C (see above).

    L = T_{Psi~} diag(1/m) + C*, R0 = M^{-1} - L (S_Phi^{-1} T_Phi)* and
    K = L P_Phi, formed under linalg's overflow rule: an R0 or K that is not
    finite is a NumericalOverflow. correction None is C = 0. On adjoint(M)
    this is the Theta side, against every dual of the right frame.
    """
    minv = invert(mult, tol)
    left = _inverse_formula_left(mult, tol)
    if correction is not None:
        left = left + correction.conj().T
    phi = mult.left
    r0 = _finite(minv - left @ phi._canonical_synth.conj().T, "R0")
    k = _finite(left @ phi._kernel_proj, "K")
    return _norm(r0), _norm(k)


@_quiet
def _decomposition_residuals(
    mult: Multiplier, op: np.ndarray, duals: list[DualFrame], tol: Tol
) -> tuple[tuple[int, float], ...]:
    """(dual index, ||M^{-1} - (T_{Psi~} diag(1/m) + op*) U_{Phi^d}||) per supplied dual of the left frame.

    Every dual is re-checked against the left frame (frames._check_dual), then
    each gap is formed on its own and judged by linalg's overflow rule. On
    adjoint(M) this is the Theta form.
    """
    parent = mult.left
    shapes = {dual.frame.synth.shape for dual in duals}
    if shapes - {(parent.dim, parent.count)}:
        raise InvalidDual(f"dual shapes {sorted(shapes)} do not match parent {parent.dim}x{parent.count}")
    minv = invert(mult, tol)
    left = _inverse_formula_left(mult, tol) + op.conj().T
    for dual in duals:
        _check_dual(parent, dual.frame.synth, tol)
    gaps = (_finite(minv - left @ dual.frame.analysis_op, "decomposition gap") for dual in duals)
    return tuple([(index, _norm(gap)) for index, gap in enumerate(gaps)])


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
    _expect(mult, Multiplier, "mult")
    _expect(g, RepResult, "g")
    return replace(g, decomposition_residuals=_decomposition_residuals(mult, g.op, duals, tol))


def verify_theta_decomposition(
    mult: Multiplier,
    t: RepResult,
    duals: list[DualFrame],
    tol: Tol = DEFAULT_TOL,
) -> RepResult:
    """Residuals of M^{-1} = mult(1/m, Psi^d, canonical dual of Phi) + T_{Psi^d} Theta.

    One residual per supplied dual of the right frame: the Gamma form of adjoint(mult).
    """
    _expect(mult, Multiplier, "mult")
    _expect(t, RepResult, "t")
    return replace(t, decomposition_residuals=_decomposition_residuals(adjoint(mult), t.op, duals, tol))


@_quiet
def _equivalence(mult: Multiplier, tol: Tol) -> tuple[EquivalenceVerdict, float]:
    """equivalence_criterion, and the formula's certified bound ||R0|| + ||K|| over every dual.

    The inverse, the equivalence map and Gamma come first, so their errors do.
    Everything is formed under linalg's overflow rule, the bound too: a bound
    that is not finite is a NumericalOverflow.
    """
    inv_norm = _inverse_norm(mult, tol)  # ||M^{-1}||

    scaled = _scaled(mult.left, mult.symbol, tol)  # build checked the shapes
    equivalent = equivalence_map(scaled, mult.right, tol) is not None

    gamma_zero = _rel_gap(gamma_of(mult, tol)._op_norm, inv_norm) <= tol.rel_eq

    # bounds ||M^{-1} - mult(1/m, canonical dual of Psi, Phi^d)|| over every dual Phi^d
    formula = _finite(sum(_certificate(mult, None, tol)), "||R0|| + ||K||")
    all_duals = _rel_gap(formula, inv_norm) <= tol.rel_eq
    return EquivalenceVerdict(equivalent, gamma_zero, all_duals), formula


def equivalence_criterion(mult: Multiplier, tol: Tol = DEFAULT_TOL) -> EquivalenceVerdict:
    """Three equivalent readings of 'the right frame is the symbol-scaled left frame up to an invertible map'.

    equivalent: an invertible V with V(m_n phi_n) = psi_n exists.
    gamma_zero: the Gamma correction vanishes.
    all_duals_formula: the correction-free inverse formula holds against every
    dual of the left frame, judged on its certified bound ||R0|| + ||K||.

    Both residual verdicts are the rule of linalg with ||M^{-1}|| = 1/sigma_min(M).
    """
    _expect(mult, Multiplier, "mult")
    return _equivalence(mult, tol)[0]
