"""Perturbation companions: frames that absorb a perturbation of the partner.

Perturb the left frame (or the symbol) of a multiplier and the realized
operator changes. Each construction here produces a companion right frame
that restores the original operator EXACTLY, together with a quantitative
report: how large the input perturbation was, how far the companion moved,
and whether the move respects the advertised Lipschitz-style coefficient.

All four companions share one formula on scaled frames. With mPhi = (m_n phi_n)
and mPhi' (new frame or new symbol) built by frames._scaled, the companion is

    T_Psi' = T_Psi (U_{mPhi} S_{mPhi'}^{-1} T_{mPhi'} + I - U_{mPhi'} S_{mPhi'}^{-1} T_{mPhi'}),

i.e. the old analysis is rerouted through the new scaled system on its range
and left untouched on the complementary kernel. Invariance of the multiplier
is then an identity, not an estimate. A perturbed right frame takes the
left-frame construction on the adjoint (frames swapped, symbol conjugated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, InvalidArgument, NumericalOverflow
from .frames import Frame, _check_shapes, _new_frame, _read_only, _scaled
from .linalg import DEFAULT_TOL, Tol, _finite, _norm, _quiet, op_norm
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
    achieved_mu + rel_eq. scale is max(1, norms of the two realized
    multipliers), the rule's scale (see linalg) for multiplier_residual.
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
    if not 0.0 < mu < np.inf:
        raise InvalidArgument(f"mu must be positive and finite, got {mu!r}")
    return _perturbed(f, mu, _noise(rng_seed, f.dim, f.count), tol)


def _noise(rng_seed, d: int, n: int) -> tuple[np.ndarray, float]:
    """The seeded d x N noise of random_frame_perturbation (read-only) and its op norm."""
    rng = np.random.default_rng(rng_seed)
    shape = (d, n)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norm = _norm(noise)
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        noise = np.ones(shape, dtype=np.complex128)
        norm = _norm(noise)
    return _read_only(noise), norm


@_quiet
def _perturbed(f: Frame, mu: float, noise: tuple[np.ndarray, float], tol: Tol) -> Frame:
    """The frame T_F + 0.9 mu noise / ||noise|| for noise = _noise(seed, d, N) and mu > 0."""
    direction, norm = noise
    return _new_frame(f.synth + direction * (0.9 * mu / norm), tol)


@_quiet
def _restore(psi: Frame, old: Frame, new: Frame, tol: Tol) -> tuple[Frame, float]:
    """The companion of psi for the scaled frames old -> new, and its deviation ||T_Psi' - T_Psi||.

    T_Psi' = T_Psi (U_old S_new^{-1} T_new + I - U_new S_new^{-1} T_new).
    """
    sol = new._canonical_synth
    mix = old.analysis_op @ sol + np.eye(psi.count) - new.analysis_op @ sol
    psi_prime = _new_frame(psi.synth @ mix, tol)
    return psi_prime, op_norm(psi_prime.synth - psi.synth)


@_quiet
def _report(
    old: np.ndarray, new: np.ndarray, psi: Frame, psi_new: Frame, mu: float, coef: float, dev: float, tol: Tol
) -> PerturbReport:
    """The report of a companion whose multiplier moved T_old U_psi -> T_new U_psi_new.

    The two multipliers and their gap are formed under linalg's overflow
    rule: one that is not finite is a NumericalOverflow.
    """
    m_old, m_new = old @ psi.analysis_op, new @ psi_new.analysis_op
    gap, norm_old, norm_new = (
        _norm(_finite(m, "companion multiplier")) for m in (m_new - m_old, m_old, m_new)
    )
    return PerturbReport(
        achieved_mu=mu,
        bound_coefficient=coef,
        companion_deviation=dev,
        multiplier_residual=gap,
        bound_satisfied=dev <= coef * mu + tol.rel_eq,
        scale=max(1.0, norm_old, norm_new),
    )


# Each hypothesis is written once, as the size it admits: a companion admits a
# move below share 1 of it, and the suites request a fixed share inside it.
def _per1_cap(moved: Frame, share: float = 1.0):
    """share * sqrt(A) of the frame that moves: per1 admits mu < sqrt(A_phi)."""
    return share * np.sqrt(moved.bounds[0])


@np.errstate(divide="ignore")  # a denominator that underflows to 0 gives the cap inf
def _per2_cap(phi: Frame, m: Symbol, mult: Multiplier, share: float = 1.0):
    """share / (sqrt(B_phi) ||M^-1|| sup|m|): per2 admits mu * sup|m| < 1 / (sqrt(B_phi) ||M^-1||)."""
    return share / (np.sqrt(phi.bounds[1]) * (1.0 / mult.inv_diag.sigma_min) * m.sup_mod)


def _per3_invertible_cap(phi: Frame, mult: Multiplier, share: float = 1.0) -> float:
    """share * sigma_min(M) / B_phi: per3's invertible branch admits eps B_phi < 1 / ||M^-1||."""
    return share * mult.inv_diag.sigma_min / phi.bounds[1]


def _per3_semi_cap(m: Symbol, share: float = 1.0) -> float:
    """share * inf|m|: per3's semi-normalized branch admits eps < inf|m|."""
    return share * m.inf_mod


@_quiet
def companion_per1(
    phi: Frame, psi: Frame, m: Symbol, phi_prime: Frame, tol: Tol = DEFAULT_TOL
) -> tuple[Frame, PerturbReport]:
    """Companion for a perturbed left frame under a semi-normalized symbol.

    Hypothesis: mu = ||T_phi - T_phi'|| < sqrt(A_phi). The companion moves by
    at most lambda * mu with lambda = sup|m| sqrt(B_psi) / (inf|m| (sqrt(A_phi) - mu)).
    """
    psi_prime, mu, lam, deviation = _per1(phi, psi, m, phi_prime, tol)
    w = m.values[np.newaxis, :]
    return psi_prime, _report(phi.synth * w, phi_prime.synth * w, psi, psi_prime, mu, lam, deviation, tol)


def _per1(
    phi: Frame, psi: Frame, m: Symbol, phi_prime: Frame, tol: Tol
) -> tuple[Frame, float, float, float]:
    """Admission and restore of companion_per1: (psi_prime, mu, lambda, deviation)."""
    _check_shapes((phi, psi, phi_prime), (m,))
    if not m.semi_normalized:
        raise HypothesisViolated("symbol must be semi-normalized (no zero entries)")
    mu = op_norm(phi_prime.synth - phi.synth)
    root_a = _per1_cap(phi)
    if mu >= root_a:
        raise HypothesisViolated(f"perturbation {mu:.3e} reaches sqrt(A_phi) = {root_a:.3e}")
    old, new = _scaled(phi, m, tol), _scaled(phi_prime, m, tol)
    psi_prime, deviation = _restore(psi, old, new, tol)
    lam = m.sup_mod * np.sqrt(psi.bounds[1]) / (m.inf_mod * (root_a - mu))
    return psi_prime, mu, float(lam), deviation


@_quiet
def companion_per1_dual_side(
    phi: Frame, psi: Frame, m: Symbol, psi_prime: Frame, tol: Tol = DEFAULT_TOL
) -> tuple[Frame, PerturbReport]:
    """Companion for a perturbed RIGHT frame; mu must stay below sqrt(A_psi).

    Runs the left-side admission and restore on the adjoint multiplier
    (conjugated symbol, frames swapped) and reports the residual in the
    original orientation, where it coincides by the adjoint identity.
    """
    phi_prime, mu, lam, deviation = _per1(psi, phi, conj(m), psi_prime, tol)
    w = m.values[np.newaxis, :]
    return phi_prime, _report(phi.synth * w, phi_prime.synth * w, psi, psi_prime, mu, lam, deviation, tol)


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


@_quiet
def _companion_per2(
    phi: Frame, psi: Frame, m: Symbol, phi_prime: Frame, mult: Multiplier, tol: Tol
) -> tuple[Frame, PerturbReport, float]:
    """companion_per2 plus its floor ratio lambda_min(S_{mPhi}) B_phi ||M^{-1}||^2, certified >= 1.

    A B_phi ||M^{-1}||^2 outside the double range is a NumericalOverflow.
    """
    _check_shapes((phi, psi, phi_prime), (m,))
    if not mult.inv_diag.invertible:
        raise HypothesisViolated("multiplier must be invertible")
    mu = op_norm(phi_prime.synth - phi.synth)
    cap = _per2_cap(phi, m, mult)
    if mu >= cap:
        raise HypothesisViolated(f"mu = {mu:.3e} reaches 1/(sqrt(B_phi)||M^-1|| sup|m|) = {cap:.3e}")
    inv_norm, b_phi = 1.0 / mult.inv_diag.sigma_min, phi.bounds[1]
    old = _scaled(phi, m, tol)
    try:
        scale = b_phi * inv_norm**2
    except OverflowError:  # a float's ** raises where its * gives inf
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise NumericalOverflow(f"B_phi ||M^-1||^2 = {scale:.3e} of finite inputs leaves the double range")
    lo_old, floor = old.bounds[0], 1.0 / scale
    if lo_old < floor - tol.rel_eq:
        raise HypothesisViolated(
            f"scaled-frame lower bound {lo_old:.3e} falls below the certified floor {floor:.3e}"
        )
    new = _scaled(phi_prime, m, tol)
    psi_prime, deviation = _restore(psi, old, new, tol)
    lam = m.sup_mod * np.sqrt(psi.bounds[1]) / np.sqrt(new.bounds[0])
    floor_ratio = lo_old * b_phi * inv_norm**2
    report = _report(old.synth, new.synth, psi, psi_prime, mu, float(lam), deviation, tol)
    return psi_prime, report, floor_ratio


def _floor_ok(floor_ratio: float, tol: Tol) -> bool:
    """per2's floor verdict on _companion_per2's ratio: relative slack, where its raise allows absolute."""
    return floor_ratio >= 1.0 - tol.rel_eq


@_quiet
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
    or m is semi-normalized with eps < inf|m|.

    No closed-form coefficient is advertised for this construction, so the
    report records the empirical ratio companion_deviation / eps instead.
    """
    _check_shapes((phi, psi), (m, m_prime))
    eps = float(np.max(np.abs(m.values - m_prime.values)))
    invertible_branch = mult.inv_diag.invertible and eps < _per3_invertible_cap(phi, mult)
    semi_branch = m.semi_normalized and eps < _per3_semi_cap(m)
    if not (invertible_branch or semi_branch):
        raise HypothesisViolated(
            f"eps = {eps:.3e} admits neither the invertible-multiplier branch "
            f"nor the semi-normalized-symbol branch"
        )
    old, new = _scaled(phi, m, tol), _scaled(phi, m_prime, tol)
    psi_prime, deviation = _restore(psi, old, new, tol)
    delta = deviation / eps if eps > 0.0 else 1.0
    return psi_prime, _report(old.synth, new.synth, psi, psi_prime, eps, float(delta), deviation, tol)
