"""Perturbation companions: frames that absorb a perturbation of the partner.

Perturb the left frame (or the symbol) of a multiplier and the realized
operator changes. Each construction here produces a companion right frame
that restores the original operator EXACTLY, together with a quantitative
report: how large the input perturbation was, how far the companion moved,
and whether the move respects the advertised Lipschitz-style coefficient.

All three companions share one formula. With the old scaled system mPhi and
the new scaled system mPhi' (new frame or new symbol), the companion is

    T_Psi' = T_Psi (U_{mPhi} S_{mPhi'}^{-1} T_{mPhi'} + I - U_{mPhi'} S_{mPhi'}^{-1} T_{mPhi'}),

i.e. the old analysis is rerouted through the new scaled system on its range
and left untouched on the complementary kernel. Invariance of the multiplier
is then an identity, not an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, HypothesisViolated, Singular
from .frames import Frame, _read_only, new_frame
from .linalg import DEFAULT_TOL, Tol, _op_norms, as_matrix, herm_eig_extremes, op_norm
from .multiplier import Multiplier
from .symbols import Symbol, conj

__all__ = [
    "PerturbReport",
    "random_frame_perturbation",
    "companion_per1",
    "companion_per1_dual_side",
    "companion_per2",
    "companion_per3",
]


@dataclass(frozen=True)
class PerturbReport:
    """Quantitative record of one companion construction.

    bound_satisfied checks companion_deviation <= bound_coefficient *
    achieved_mu + rel_eq. scale = max(1, norms of the two realized
    multipliers) is the legitimate inflation factor for multiplier_residual.
    """

    achieved_mu: float
    bound_coefficient: float
    companion_deviation: float
    multiplier_residual: float
    bound_satisfied: bool
    scale: float


def random_frame_perturbation(
    f: Frame, mu: float, rng_seed, tol: Tol = DEFAULT_TOL
) -> Frame:
    """A frame F' with ||T_F - T_F'|| = 0.9 * mu, deterministic per seed.

    The 0.9 factor keeps the perturbation strictly inside the requested
    budget, away from the boundary where frame validation gets ambiguous.
    Raises NotAFrame when the perturbed sequence stops spanning (possible
    once mu reaches sqrt(A_F)).
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")
    return _perturbed(f, mu, _noise(rng_seed, f.dim, f.count), tol)


def _noise(rng_seed, d: int, n: int) -> tuple[np.ndarray, float]:
    """The seeded d x N noise of random_frame_perturbation (read-only) and its op norm."""
    rng = np.random.default_rng(rng_seed)
    shape = (d, n)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norm = op_norm(noise)
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        noise = np.ones(shape, dtype=np.complex128)
        norm = op_norm(noise)
    return _read_only(noise), norm


def _perturbed(f: Frame, mu: float, noise: tuple[np.ndarray, float], tol: Tol) -> Frame:
    """The frame T_F + 0.9 mu noise / ||noise|| for noise = _noise(seed, d, N) and mu > 0."""
    direction, norm = noise
    return new_frame(f.synth + direction * (0.9 * mu / norm), tol)


def _scaled_system(synth: np.ndarray, weights: np.ndarray, tol: Tol) -> tuple[np.ndarray, np.ndarray, float]:
    """(T_scaled, S_scaled, lambda_min(S_scaled)) for the weighted sequence; Singular if S degenerates."""
    t = synth * weights[np.newaxis, :]
    s = t @ t.conj().T
    lo, hi = herm_eig_extremes(s, tol)
    if hi <= 0.0 or lo <= tol.inv_cond * hi:
        raise Singular(
            f"scaled frame operator degenerates: lambda_min={lo:.3e}, lambda_max={hi:.3e}"
        )
    return t, s, lo


def _companion_synth(
    psi_synth: np.ndarray, t_old: np.ndarray, t_new: np.ndarray, s_new: np.ndarray
) -> np.ndarray:
    """T_Psi (U_old S_new^{-1} T_new + I - U_new S_new^{-1} T_new)."""
    n = psi_synth.shape[1]
    sol = np.linalg.solve(s_new, t_new)  # S_new^{-1} T_new
    mix = t_old.conj().T @ sol + np.eye(n) - t_new.conj().T @ sol
    return psi_synth @ mix


def _invariance_report(
    psi: Frame,
    psi_prime: Frame,
    t_old: np.ndarray,
    t_new: np.ndarray,
    achieved_mu: float,
    bound_coefficient: float,
    tol: Tol,
) -> PerturbReport:
    deviation = op_norm(psi_prime.synth - psi.synth)
    residual, scale = _invariance(t_old @ psi.analysis_op, t_new @ psi_prime.analysis_op)
    return PerturbReport(
        achieved_mu=achieved_mu,
        bound_coefficient=bound_coefficient,
        companion_deviation=deviation,
        multiplier_residual=residual,
        bound_satisfied=deviation <= bound_coefficient * achieved_mu + tol.rel_eq,
        scale=scale,
    )


def _invariance(m_old: np.ndarray, m_new: np.ndarray) -> tuple[float, float]:
    """(multiplier_residual, scale) of a companion: the three op_norms from one stacked SVD."""
    stack = np.stack([as_matrix(a) for a in (m_new - m_old, m_old, m_new)])
    gap, norm_old, norm_new = _op_norms(stack).tolist()
    return gap, max(1.0, norm_old, norm_new)


def _check_shapes(phi: Frame, psi: Frame, m: Symbol, other: Frame) -> None:
    if phi.dim != psi.dim or phi.dim != other.dim:
        raise DimensionMismatch(
            f"frame dimensions differ: {phi.dim}, {psi.dim}, {other.dim}"
        )
    if not (m.count == phi.count == psi.count == other.count):
        raise DimensionMismatch(
            f"lengths differ: symbol {m.count}, frames {phi.count}/{psi.count}/{other.count}"
        )


def companion_per1(
    phi: Frame, psi: Frame, m: Symbol, phi_prime: Frame, tol: Tol = DEFAULT_TOL
) -> tuple[Frame, PerturbReport]:
    """Companion for a perturbed left frame under a semi-normalized symbol.

    Hypothesis: mu = ||T_phi - T_phi'|| < sqrt(A_phi). The companion moves by
    at most lambda * mu with lambda = sup|m| sqrt(B_psi) / (inf|m| (sqrt(A_phi) - mu)).
    """
    _check_shapes(phi, psi, m, phi_prime)
    if not m.semi_normalized:
        raise HypothesisViolated("symbol must be semi-normalized (no zero entries)")
    mu = op_norm(phi_prime.synth - phi.synth)
    a_phi = phi.bounds[0]
    if mu >= np.sqrt(a_phi):
        raise HypothesisViolated(
            f"perturbation {mu:.3e} reaches sqrt(A_phi) = {np.sqrt(a_phi):.3e}"
        )
    t_old, _, _ = _scaled_system(phi.synth, m.values, tol)
    t_new, s_new, _ = _scaled_system(phi_prime.synth, m.values, tol)
    psi_prime = new_frame(_companion_synth(psi.synth, t_old, t_new, s_new), tol)
    lam = m.sup_mod * np.sqrt(psi.bounds[1]) / (m.inf_mod * (np.sqrt(a_phi) - mu))
    return psi_prime, _invariance_report(psi, psi_prime, t_old, t_new, mu, float(lam), tol)


def companion_per1_dual_side(
    phi: Frame, psi: Frame, m: Symbol, psi_prime: Frame, tol: Tol = DEFAULT_TOL
) -> tuple[Frame, PerturbReport]:
    """Companion for a perturbed RIGHT frame; mu must stay below sqrt(A_psi).

    Runs the left-side construction on the adjoint multiplier (conjugated
    symbol, frames swapped) and reports the residual in the original
    orientation, where it coincides by the adjoint identity.
    """
    phi_prime, swapped = companion_per1(psi, phi, conj(m), psi_prime, tol)
    m_old = (phi.synth * m.values[np.newaxis, :]) @ psi.analysis_op
    m_new = (phi_prime.synth * m.values[np.newaxis, :]) @ psi_prime.analysis_op
    residual, scale = _invariance(m_old, m_new)
    return phi_prime, replace(swapped, multiplier_residual=residual, scale=scale)


def companion_per2(
    phi: Frame,
    psi: Frame,
    m: Symbol,
    phi_prime: Frame,
    mult: Multiplier,
    tol: Tol = DEFAULT_TOL,
) -> tuple[Frame, PerturbReport]:
    """Companion for a perturbed left frame when the symbol may contain zeros.

    The semi-normalization hypothesis is replaced by invertibility of the
    multiplier together with mu * sup|m| < 1 / (sqrt(B_phi) ||M^{-1}||). The
    reported coefficient is sup|m| sqrt(B_psi) / sqrt(lambda_min(S_{mPhi'})),
    which bounds the companion deviation by submultiplicativity.
    """
    return _companion_per2(phi, psi, m, phi_prime, mult, tol)[:2]


def _companion_per2(
    phi: Frame, psi: Frame, m: Symbol, phi_prime: Frame, mult: Multiplier, tol: Tol
) -> tuple[Frame, PerturbReport, float]:
    """companion_per2 plus the lambda_min(S_{mPhi}) its floor check solved for."""
    _check_shapes(phi, psi, m, phi_prime)
    if not mult.inv_diag.invertible:
        raise HypothesisViolated("multiplier must be invertible")
    inv_norm = 1.0 / mult.inv_diag.sigma_min
    mu = op_norm(phi_prime.synth - phi.synth)
    b_phi = phi.bounds[1]
    if mu * m.sup_mod >= 1.0 / (np.sqrt(b_phi) * inv_norm):
        raise HypothesisViolated(
            f"mu * sup|m| = {mu * m.sup_mod:.3e} reaches "
            f"1/(sqrt(B_phi)||M^-1||) = {1.0 / (np.sqrt(b_phi) * inv_norm):.3e}"
        )
    t_old, _, lo_old = _scaled_system(phi.synth, m.values, tol)
    if lo_old < 1.0 / (b_phi * inv_norm**2) - tol.rel_eq:
        raise HypothesisViolated(
            f"scaled-frame lower bound {lo_old:.3e} falls below the certified "
            f"floor {1.0 / (b_phi * inv_norm**2):.3e}"
        )
    t_new, s_new, lo_new = _scaled_system(phi_prime.synth, m.values, tol)
    psi_prime = new_frame(_companion_synth(psi.synth, t_old, t_new, s_new), tol)
    lam = m.sup_mod * np.sqrt(psi.bounds[1]) / np.sqrt(lo_new)
    report = _invariance_report(psi, psi_prime, t_old, t_new, mu, float(lam), tol)
    return psi_prime, report, lo_old


def companion_per3(
    phi: Frame,
    psi: Frame,
    m: Symbol,
    m_prime: Symbol,
    mult: Multiplier,
    tol: Tol = DEFAULT_TOL,
) -> tuple[Frame, PerturbReport]:
    """Companion for a perturbed SYMBOL: the frames stay, the weights move.

    Admission requires one of two hypotheses on eps = sup|m - m'|:
    either the multiplier is invertible with eps * B_phi < 1 / ||M^{-1}||,
    or m is semi-normalized with eps * sqrt(B_phi) < inf|m| * sqrt(B_phi)
    (taken literally; the common factor cancels to eps < inf|m|).

    No closed-form coefficient is advertised for this construction, so the
    report records the empirical ratio companion_deviation / eps instead.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatch(f"frame dimensions differ: {phi.dim} vs {psi.dim}")
    if not (m.count == m_prime.count == phi.count == psi.count):
        raise DimensionMismatch(
            f"lengths differ: symbols {m.count}/{m_prime.count}, "
            f"frames {phi.count}/{psi.count}"
        )
    eps = float(np.max(np.abs(m.values - m_prime.values)))
    b_phi = phi.bounds[1]
    invertible_branch = (
        mult.inv_diag.invertible
        and eps * b_phi < mult.inv_diag.sigma_min  # eps B_phi < 1/||M^-1||
    )
    semi_branch = m.semi_normalized and eps * np.sqrt(b_phi) < m.inf_mod * np.sqrt(b_phi)
    if not (invertible_branch or semi_branch):
        raise HypothesisViolated(
            f"eps = {eps:.3e} admits neither the invertible-multiplier branch "
            f"nor the semi-normalized-symbol branch"
        )
    t_old, _, _ = _scaled_system(phi.synth, m.values, tol)
    t_new, s_new, _ = _scaled_system(phi.synth, m_prime.values, tol)
    psi_prime = new_frame(_companion_synth(psi.synth, t_old, t_new, s_new), tol)
    deviation = op_norm(psi_prime.synth - psi.synth)
    delta = deviation / eps if eps > 0.0 else 1.0
    residual, scale = _invariance(t_old @ psi.analysis_op, t_new @ psi_prime.analysis_op)
    return psi_prime, PerturbReport(
        achieved_mu=eps,
        bound_coefficient=float(delta),
        companion_deviation=deviation,
        multiplier_residual=residual,
        bound_satisfied=deviation <= delta * eps + tol.rel_eq,
        scale=scale,
    )
