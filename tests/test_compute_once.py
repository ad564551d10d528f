"""Quantities computed once and reused: each reuse gives the bits of a fresh computation."""

import gc
import weakref

import numpy as np
import pytest

from framemult import (
    Condition,
    ExperimentConfig,
    NumericalOverflow,
    Singular,
    Tol,
    build,
    canonical_dual,
    companion_per2,
    dagger_frames,
    gamma_of,
    harmonic_tight,
    invert,
    new_frame,
    random_dual,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    reciprocal,
    riesz_basis,
    run_suite,
    sample_duals,
    theta_of,
    thm1_report,
    verify_gamma_decomposition,
    verify_theta_decomposition,
)
from framemult import linalg, multiplier, representations, suites
from framemult.linalg import herm_eig_extremes, op_norm, rel_residual
from framemult.multiplier import BOUNDARY_FACTOR
from framemult.representations import (
    DUAL_SAMPLE_COUNT,
    _decomposition_residuals,
    _unit_w,
)

FRAME_PAIRS = {
    "4x9": lambda: (random_frame(4, 9, (307, 0)), random_frame(4, 9, (307, 1))),
    "8x17": lambda: (random_frame(8, 17, (307, 2)), random_frame(8, 17, (307, 3))),
    "riesz3": lambda: (riesz_basis(3, (307, 4)), riesz_basis(3, (307, 5))),
}


def _multiplier(name):
    phi, psi = FRAME_PAIRS[name]()
    for attempt in range(20):
        mult = build(random_symbol(phi.count, 0.5, 2.0, (307, attempt)), phi, psi)
        if mult.inv_diag.invertible:
            return mult
    raise AssertionError(f"no invertible multiplier on {name}")


# ------------------------------------------------------ decomposition residuals


def test_one_pass_with_no_duals_gives_empty_residuals():
    mult = _multiplier("4x9")
    g = gamma_of(mult)
    assert _decomposition_residuals(mult, g.op, [], Tol()) == ()
    assert verify_gamma_decomposition(mult, g, []).decomposition_residuals == ()
    assert verify_theta_decomposition(mult, theta_of(mult), []).decomposition_residuals == ()


# ------------------------------------------------------------- Gamma memo


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_memoized_gamma_equals_a_fresh_build(name):
    mult = _multiplier(name)
    first = gamma_of(mult)
    assert gamma_of(mult) is first
    assert not first.op.flags.writeable
    fresh = gamma_of(build(mult.symbol, mult.left, mult.right))  # a new multiplier, a new memo
    assert fresh is not first
    assert first.op.tobytes() == fresh.op.tobytes()
    assert first.annihilation_residual == fresh.annihilation_residual
    assert first.masked_annihilation_residual == fresh.masked_annihilation_residual


def test_memoized_gamma_still_raises_singular_under_a_tighter_tol():
    mult = _multiplier("8x17")
    gamma_of(mult)
    residual = mult._inverse[1]
    assert residual > 0.0
    tight = Tol(rel_eq=residual / 2.0)
    for _ in range(2):
        with pytest.raises(Singular):
            gamma_of(mult, tight)
    assert tight not in mult._gammas
    assert gamma_of(mult, Tol(rel_eq=2.0 * residual)).op.tobytes() == gamma_of(mult).op.tobytes()


# ------------------------------------------------------------- Theta memo


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_memoized_theta_equals_a_fresh_build(name):
    mult = _multiplier(name)
    first = theta_of(mult)
    assert theta_of(mult) is first and theta_of(mult).op is first.op
    assert first.kind == "Theta" and not first.op.flags.writeable
    fresh = theta_of(build(mult.symbol, mult.left, mult.right))  # a new multiplier, a new memo
    assert fresh is not first
    assert first.op.tobytes() == fresh.op.tobytes()
    assert first.annihilation_residual == fresh.annihilation_residual
    assert first.masked_annihilation_residual == fresh.masked_annihilation_residual


def test_a_second_theta_runs_no_inverse_and_no_svd(monkeypatch):
    mult = _multiplier("4x9")
    first = theta_of(mult)

    def refuse(*args, **kwargs):
        raise AssertionError("recomputed")

    for module, name in [
        (linalg, "_svd_values"),
        (multiplier, "_inv"),
        (representations, "invert"),
        (representations, "_norm"),
        (representations, "adjoint"),
        (representations, "gamma_of"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert theta_of(mult) is first


def test_the_theta_memo_creates_no_reference_cycle():
    gc.disable()
    try:
        mult = _multiplier("8x17")
        theta_of(mult)
        gamma_of(mult)
        ref = weakref.ref(mult)
        del mult
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------- seed-2026 block


@pytest.mark.parametrize("d, n", [(4, 9), (8, 17), (3, 3)])
def test_seed_2026_block_equals_a_hand_draw(d, n):
    block = _unit_w(np.random.default_rng(2026), DUAL_SAMPLE_COUNT, d, n)
    assert not block.flags.writeable
    rng = np.random.default_rng(2026)
    for w in block:  # real part then imaginary part, dual by dual
        draw = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        assert w.tobytes() == (draw / op_norm(draw)).tobytes()
    f = random_frame(d, n, (307, 9))
    for _ in range(2):  # every call without rng draws the same block afresh
        duals = sample_duals(f)
        assert [dual.w.tobytes() for dual in duals[1:]] == [w.tobytes() for w in block]


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_sample_duals_without_rng_is_the_seed_2026_family(name):
    f = FRAME_PAIRS[name]()[0]
    cached = sample_duals(f)
    fresh = sample_duals(f, rng=np.random.default_rng(2026))
    assert [d.frame.synth.tobytes() for d in cached] == [d.frame.synth.tobytes() for d in fresh]
    assert [d.frame.bounds for d in cached] == [d.frame.bounds for d in fresh]


# ------------------------------------------------- trial probe direction memo


def test_combined_run_draws_each_trial_block_once(monkeypatch):
    """The (seed, trial, 7) probe direction is drawn once per trial; gamma and theta share it."""
    real = suites._probe_direction
    draws, memos = [], []

    def counting(shape, seed):
        draws.append(seed)
        memos.append(suites._MEMO.get())  # the run's memo
        return real(shape, seed)

    monkeypatch.setattr(suites, "_probe_direction", counting)
    cfg = ExperimentConfig(suite="all", dims=((2, 5), (3, 7)), trials=4, seed=4243)
    run_suite(cfg)
    assert draws == [(4243, t, 7) for t in range(4)]
    assert all(memo is memos[0] for memo in memos)
    assert memos[0] == {}


# ------------------------------------------------ companion_per2, thm1_report


def _old_companion_per2_report(phi, psi, m, phi_prime, psi_prime, tol):
    """The per2 report with each norm and extreme computed on its own, as op_norm gives it."""
    t_old = phi.synth * m.values[np.newaxis, :]
    t_new = phi_prime.synth * m.values[np.newaxis, :]
    lo_new, _ = herm_eig_extremes(t_new @ t_new.conj().T, tol)
    lam = float(m.sup_mod * np.sqrt(psi.bounds[1]) / np.sqrt(lo_new))
    mu = op_norm(phi_prime.synth - phi.synth)
    deviation = op_norm(psi_prime.synth - psi.synth)
    m_old, m_new = t_old @ psi.analysis_op, t_new @ psi_prime.analysis_op
    return (
        mu,
        lam,
        deviation,
        op_norm(m_new - m_old),
        deviation <= lam * mu + tol.rel_eq,
        max(1.0, op_norm(m_old), op_norm(m_new)),
    )


@pytest.mark.parametrize("name", ["4x9", "8x17"])
def test_companion_per2_report_is_unchanged(name):
    tol = Tol()
    mult = _multiplier(name)
    phi, psi, m = mult.left, mult.right, mult.symbol
    mu = 0.5 / (np.sqrt(phi.bounds[1]) / mult.inv_diag.sigma_min * m.sup_mod)
    phi_prime = random_frame_perturbation(phi, min(mu, np.sqrt(phi.bounds[0])), (307, 9), tol)
    psi_prime, report = companion_per2(phi, psi, m, phi_prime, mult, tol)
    expected = _old_companion_per2_report(phi, psi, m, phi_prime, psi_prime, tol)
    assert (
        report.achieved_mu,
        report.bound_coefficient,
        report.companion_deviation,
        report.multiplier_residual,
        report.bound_satisfied,
        report.scale,
    ) == expected


def _old_thm1(mult, tol):
    """thm1_report's fields through build and rel_residual, as before the shortcuts."""
    minv = invert(mult, tol)
    psi_tilde = canonical_dual(mult.right, tol).frame
    phi_tilde = canonical_dual(mult.left, tol).frame
    candidate = build(reciprocal(mult.symbol), psi_tilde, phi_tilde, tol).matrix
    direct_norm = rel_residual(minv, candidate)
    phi, psi = mult.left, mult.right
    abs_m = np.abs(mult.symbol.values)[np.newaxis, :]
    psi_dagger, phi_dagger = dagger_frames(mult, tol)

    def cond(lhs, rhs):
        return Condition(lhs, rhs, abs(lhs - rhs) <= tol.rel_eq * max(1.0, lhs, rhs))

    conds = (
        cond(1.0 / psi.bounds[0], op_norm(minv @ (phi.synth * abs_m)) ** 2),
        cond(1.0 / psi.bounds[0], psi_dagger.bounds[1]),
        cond(1.0 / phi.bounds[0], op_norm(minv.conj().T @ (psi.synth * abs_m)) ** 2),
        cond(1.0 / phi.bounds[0], phi_dagger.bounds[1]),
    )
    verdicts = [direct_norm <= tol.rel_eq, *(c.holds for c in conds)]
    residuals = [direct_norm, *(c.residual for c in conds)]
    return (
        direct_norm <= tol.rel_eq,
        op_norm(minv - candidate),
        conds,
        all(verdicts) or not any(verdicts),
        any(tol.rel_eq < r <= BOUNDARY_FACTOR * tol.rel_eq for r in residuals),
    )


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_thm1_report_is_unchanged(name):
    mult = _multiplier(name)
    rep = thm1_report(mult)
    assert (
        rep.direct_equal,
        rep.direct_residual,
        rep.conditions,
        rep.consistent,
        rep.indeterminate,
    ) == _old_thm1(mult, Tol())


# ------------------------------------------------------------ typed errors


def test_overflowing_frame_operator_is_a_numerical_overflow():
    with pytest.raises(NumericalOverflow):
        new_frame(1e200 * np.eye(2))
    # The same Gram overflow in a dual built by random_dual.
    f = new_frame(1e-153 * harmonic_tight(2, 4).synth)
    p0 = np.eye(f.count)[:, 0] - f.analysis_op @ np.linalg.solve(f.cached_S, f.synth[:, 0])
    with pytest.raises(NumericalOverflow):
        random_dual(f, 1e155 * np.outer(np.eye(f.dim)[0], p0.conj()), Tol(inv_cond=0.5))
    with pytest.raises(ValueError, match="must be finite"):
        new_frame([[np.inf, 0.0], [0.0, 1.0]])
