"""The adjoint multiplier as the single source of the mirrored (Theta) side."""

import numpy as np
import pytest

import framemult
from framemult import (
    ExperimentConfig,
    Singular,
    Tol,
    adjoint,
    build,
    gamma_of,
    invert,
    new_symbol,
    onb,
    random_frame,
    random_symbol,
    reciprocal,
    riesz_basis,
    run_suite,
    theta_of,
)
from framemult import suites
from framemult.linalg import op_norm

FRAME_PAIRS = {
    "4x9": lambda: (random_frame(4, 9, (307, 0)), random_frame(4, 9, (307, 1))),
    "8x17": lambda: (random_frame(8, 17, (307, 2)), random_frame(8, 17, (307, 3))),
    "riesz3": lambda: (riesz_basis(3, (307, 4)), riesz_basis(3, (307, 5))),
}

# framemult.__all__ before it was built from the module __all__s.
EXPORTED_BEFORE = (
    "Tol DEFAULT_TOL as_matrix op_norm herm_eig_extremes pinv sv_extremes inv rel_residual "
    "approx_equal Frame DualFrame new_frame analysis synthesis frame_bounds canonical_dual "
    "random_dual proj_ker_synthesis is_riesz_basis scale_by_symbol equivalence_map Symbol "
    "new_symbol classify reciprocal conj modulus perturb_symbol Multiplier InvDiag Condition "
    "Thm1Report build invert canonical_inverse_candidate dagger_frames thm1_report RepResult "
    "EquivalenceVerdict gamma_of verify_gamma_decomposition theta_of "
    "verify_theta_decomposition equivalence_criterion sample_duals PerturbReport "
    "random_frame_perturbation companion_per1 companion_per1_dual_side companion_per2 "
    "companion_per3 onb harmonic_tight finite_gabor random_frame riesz_basis random_symbol "
    "save_frame load_frame save_report ExperimentConfig TrialRecord SuiteReport run_suite "
    "validate_config DEFAULT_DIMS FrameMultError DimensionMismatch NotHermitian "
    "NumericalOverflow Singular NotAFrame ZeroEntry HypothesisViolated InvalidDual "
    "GenerationFailed ConfigInvalid IoError ParseError"
).split()


def _invertible(name):
    phi, psi = FRAME_PAIRS[name]()
    for attempt in range(20):
        mult = build(random_symbol(phi.count, 0.5, 2.0, (307, 6, attempt)), phi, psi)
        if mult.inv_diag.invertible:
            return mult
    raise AssertionError(f"no invertible multiplier for {name}")


def _reference_theta(mult):
    """Theta = U_Psi M^{-1} - diag(1/m) U_Phi S_Phi^{-1} and its two residuals, written out."""
    phi, psi = mult.left, mult.right
    m = mult.symbol.values
    inv_m = reciprocal(mult.symbol).values
    dual_analysis = np.linalg.solve(phi.cached_S, phi.synth).conj().T
    theta = psi.analysis_op @ invert(mult) - inv_m[:, np.newaxis] * dual_analysis
    return theta, op_norm(phi.synth @ theta), op_norm((phi.synth * m[np.newaxis, :]) @ theta)


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_theta_is_gamma_of_the_adjoint_bit_for_bit(name):
    mult = _invertible(name)
    t = theta_of(mult)
    g = gamma_of(adjoint(mult))
    ref_op, ref_annihilation, ref_masked = _reference_theta(mult)
    assert t.kind == "Theta" and g.kind == "Gamma"
    for rep in (t, g):
        assert np.array_equal(rep.op, ref_op)
        assert rep.annihilation_residual == ref_annihilation
        assert rep.masked_annihilation_residual == ref_masked


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_adjoint_swaps_frames_and_shares_the_inverse(name):
    mult = _invertible(name)
    adj = adjoint(mult)
    assert adj.left is mult.right and adj.right is mult.left
    assert adj.inv_diag is mult.inv_diag
    assert np.array_equal(adj.symbol.values, np.conj(mult.symbol.values))
    assert np.array_equal(adj.matrix, mult.matrix.conj().T)
    assert np.array_equal(invert(adj), invert(mult).conj().T)
    assert not adj.matrix.flags.writeable and not invert(adj).flags.writeable
    assert np.array_equal(adjoint(adj).matrix, mult.matrix)


def test_adjoint_inverse_is_judged_by_the_residual_of_m():
    mult = _invertible("4x9")
    strict = Tol(rel_eq=1e-300)
    with pytest.raises(Singular) as direct:
        invert(mult, strict)
    with pytest.raises(Singular) as mirrored:
        invert(adjoint(mult), strict)
    assert str(mirrored.value) == str(direct.value)


def test_singular_adjoint_raises_the_same_message():
    f = onb(3)
    mult = build(new_symbol([0.0, 1.0, 2.0]), f, f)
    assert not mult.inv_diag.invertible
    with pytest.raises(Singular) as direct:
        invert(mult)
    with pytest.raises(Singular) as mirrored:
        invert(adjoint(mult))
    assert str(mirrored.value) == str(direct.value)


def test_package_all_is_built_from_the_modules():
    names = framemult.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(framemult, name) is not None
    assert set(EXPORTED_BEFORE) <= set(names)
    assert "adjoint" in names


def _count_builds(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(suites, "build", counted)
    return calls


def test_rank_deficient_zero_entry_draws_are_not_tried(monkeypatch):
    calls = _count_builds(monkeypatch)
    report = run_suite(ExperimentConfig(suite="per2", generator="riesz", dims=((3, 3),), trials=2))
    assert [r.note for r in report.records] == [
        f"FrameMultError: no invertible multiplier in 20 symbol draws (trial {t})" for t in (0, 1)
    ]
    assert calls == []


def test_zero_entry_draws_run_when_n_minus_one_reaches_d(monkeypatch):
    calls = _count_builds(monkeypatch)
    report = run_suite(ExperimentConfig(suite="per2", dims=((3, 4),), trials=2))
    assert len(calls) >= 2
    assert all("symbol draws" not in r.note for r in report.records)
