"""The four companions on scaled frames: typed errors, and per1dual's one report pass."""

import numpy as np
import pytest

from framemult import (
    DimensionMismatch,
    ExperimentConfig,
    NumericalOverflow,
    Tol,
    build,
    companion_per1,
    companion_per1_dual_side,
    companion_per2,
    companion_per3,
    conj,
    new_symbol,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    riesz_basis,
    run_suite,
)
from framemult import perturbation


def _instance(seed, d=3, n=7):
    phi, psi = random_frame(d, n, (seed, 0)), random_frame(d, n, (seed, 1))
    return phi, psi, random_symbol(n, 0.5, 2.0, (seed, 2))


# ------------------------------------------------------------ overflow


def _overflow_calls():
    """Each companion on 3x7 frames with its symbol scaled by 1e200, admitted by every check."""
    phi, psi, m = _instance(71)
    big = new_symbol(1e200 * m.values)
    zero = new_symbol(np.where(np.arange(7) == 0, 0.0, big.values))
    mult, mult_zero = build(big, phi, psi), build(zero, phi, psi)
    assert mult.inv_diag.invertible and mult_zero.inv_diag.invertible
    mu = 0.1 * np.sqrt(min(phi.bounds[0], psi.bounds[0]))
    # per2 admits mu * sup|m| < sigma_min / sqrt(B_phi); the scale cancels.
    mu_per2 = 0.1 * mult_zero.inv_diag.sigma_min / (np.sqrt(phi.bounds[1]) * zero.sup_mod)
    return {
        "per1": lambda: companion_per1(phi, psi, big, random_frame_perturbation(phi, mu, 3)),
        "per1dual": lambda: companion_per1_dual_side(
            phi, psi, big, random_frame_perturbation(psi, mu, 3)
        ),
        "per2": lambda: companion_per2(
            phi, psi, zero, random_frame_perturbation(phi, mu_per2, 3), mult_zero
        ),
        "per3": lambda: companion_per3(phi, psi, big, big, mult),
    }


@pytest.mark.parametrize("name", ["per1", "per1dual", "per2", "per3"])
def test_overflowing_scaled_frame_operator_is_a_numerical_overflow(name):
    call = _overflow_calls()[name]
    with pytest.raises(NumericalOverflow):
        call()


# ------------------------------------------------------------ shapes


def _shape_calls():
    """(name, call) pairs, each with exactly one operand of the wrong shape."""
    phi, psi, m = _instance(73)
    mult = build(m, phi, psi)
    wrong = {"dim": random_frame(4, 7, (73, 3)), "count": random_frame(3, 8, (73, 4))}
    long_m = random_symbol(8, 0.5, 2.0, (73, 5))
    calls = []
    for kind, bad in wrong.items():
        for slot in range(3):  # phi, psi, the moved frame
            frames = [phi, psi, phi]
            frames[slot] = bad
            f, g, moved = frames
            calls += [
                (f"per1-{slot}-{kind}", lambda f=f, g=g, h=moved: companion_per1(f, g, m, h)),
                (
                    f"per1dual-{slot}-{kind}",
                    lambda f=f, g=g, h=moved: companion_per1_dual_side(f, g, m, h),
                ),
                (f"per2-{slot}-{kind}", lambda f=f, g=g, h=moved: companion_per2(f, g, m, h, mult)),
            ]
            if slot < 2:
                calls.append(
                    (f"per3-{slot}-{kind}", lambda f=f, g=g: companion_per3(f, g, m, m, mult))
                )
    calls += [
        ("per1-symbol", lambda: companion_per1(phi, psi, long_m, phi)),
        ("per1dual-symbol", lambda: companion_per1_dual_side(phi, psi, long_m, psi)),
        ("per2-symbol", lambda: companion_per2(phi, psi, long_m, phi, mult)),
        ("per3-symbol", lambda: companion_per3(phi, psi, long_m, m, mult)),
        ("per3-m_prime", lambda: companion_per3(phi, psi, m, long_m, mult)),
    ]
    return calls


@pytest.mark.parametrize("name", [name for name, _ in _shape_calls()])
def test_mismatched_shapes_are_a_dimension_mismatch(name):
    with pytest.raises(DimensionMismatch):
        dict(_shape_calls())[name]()


# ------------------------------------------------------------ per1dual report

FRAME_PAIRS = {
    "4x9": lambda: _instance(79, 4, 9),
    "8x17": lambda: _instance(83, 8, 17),
    "riesz3": lambda: (
        riesz_basis(3, (89, 0)),
        riesz_basis(3, (89, 1)),
        random_symbol(3, 0.5, 2.0, (89, 2)),
    ),
}


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_per1dual_report_matches_the_two_pass_expression(name):
    """mu, lambda and deviation of the swapped run; residual and scale in the given orientation."""
    tol = Tol()
    phi, psi, m = FRAME_PAIRS[name]()
    psi_prime = random_frame_perturbation(psi, 0.4 * np.sqrt(psi.bounds[0]), (97, 3), tol)
    phi_prime, report = companion_per1_dual_side(phi, psi, m, psi_prime, tol)

    swapped_prime, swapped = companion_per1(psi, phi, conj(m), psi_prime, tol)
    m_old = (phi.synth * m.values[np.newaxis, :]) @ psi.analysis_op
    m_new = (swapped_prime.synth * m.values[np.newaxis, :]) @ psi_prime.analysis_op
    stack = np.stack([m_new - m_old, m_old, m_new])
    gap, norm_old, norm_new = np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()

    assert np.array_equal(phi_prime.synth, swapped_prime.synth)
    assert (
        report.achieved_mu,
        report.bound_coefficient,
        report.companion_deviation,
        report.multiplier_residual,
        report.bound_satisfied,
        report.scale,
    ) == (
        swapped.achieved_mu,
        swapped.bound_coefficient,
        swapped.companion_deviation,
        gap,
        swapped.bound_satisfied,
        max(1.0, norm_old, norm_new),
    )


@pytest.mark.parametrize("suite", ["per1", "per1dual"])
def test_each_report_judges_then_norms_gap_old_and_new_in_turn(monkeypatch, suite):
    """One matrix at a time: _finite, then the norm kernel, on the gap, the old and the new multiplier."""
    events = []
    real_finite, real_norm = perturbation._finite, perturbation._norm

    def finite(mat, what):
        events.append(("finite", what, mat))
        return real_finite(mat, what)

    def norm(mat):
        events.append(("norm", None, mat))
        return real_norm(mat)

    monkeypatch.setattr(perturbation, "_finite", finite)
    monkeypatch.setattr(perturbation, "_norm", norm)
    report = run_suite(ExperimentConfig(suite=suite, trials=10))
    assert all(r.verdict == "pass" for r in report.records)
    judged = [k for k, (_, what, _) in enumerate(events) if what == "companion multiplier"]
    assert len(judged) == 30  # three per companion call
    for first, second, third in zip(*[iter(judged)] * 3):
        assert (second, third) == (first + 2, first + 4)
        for k in (first, second, third):
            assert events[k + 1][0] == "norm" and events[k + 1][2] is events[k][2]
        gap, old, new = (events[k][2] for k in (first, second, third))
        assert np.array_equal(gap, new - old)
