"""Multiplier assembly, inversion, dagger frames, and the five-way report."""

from dataclasses import replace

import numpy as np
import pytest

from framemult import (
    DimensionMismatch,
    NumericalOverflow,
    Singular,
    Tol,
    build,
    canonical_dual,
    canonical_inverse_candidate,
    dagger_frames,
    equivalence_criterion,
    frame_bounds,
    gamma_of,
    harmonic_tight,
    invert,
    new_frame,
    new_symbol,
    onb,
    random_dual,
    random_frame,
    random_symbol,
    scale_by_symbol,
    theta_of,
    thm1_report,
)
from framemult.linalg import op_norm, rel_residual
from tests.conftest import invertible_multiplier, scaled_equivalent_multiplier


class TestBuild:
    def test_onb_gives_diagonal(self):
        m = new_symbol([1.0, 2.0j, -0.5])
        mult = build(m, onb(3), onb(3))
        assert np.allclose(mult.matrix, np.diag(m.values))

    def test_ones_with_canonical_dual_is_identity(self):
        phi = random_frame(3, 8, 5)
        psi = canonical_dual(phi).frame
        mult = build(new_symbol(np.ones(8)), phi, psi)
        assert op_norm(mult.matrix - np.eye(3)) < 1e-10

    def test_scalar_loop_oracle(self):
        # entry (i, j) must be sum_k m_k phi[i,k] conj(psi[j,k])
        m = random_symbol(7, 0.5, 2.0, (31, 2))
        phi = random_frame(3, 7, (31, 0))
        psi = random_frame(3, 7, (31, 1))
        mult = build(m, phi, psi)
        for i in range(3):
            for j in range(3):
                expected = sum(
                    m.values[k] * phi.synth[i, k] * np.conj(psi.synth[j, k])
                    for k in range(7)
                )
                got = mult.matrix[i, j]
                assert abs(got - expected) <= 1e-10 * max(1.0, abs(got), abs(expected))

    def test_action_matches_analysis_scale_synthesis(self):
        m = random_symbol(9, 0.5, 2.0, (37, 2))
        phi = random_frame(4, 9, (37, 0))
        psi = random_frame(4, 9, (37, 1))
        mult = build(m, phi, psi)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs = psi.analysis_op @ x
        by_steps = phi.synth @ (m.values * coeffs)
        assert np.allclose(mult.matrix @ x, by_steps)

    def test_adjoint_swaps_frames_and_conjugates(self):
        m = random_symbol(7, 0.5, 2.0, (41, 2))
        phi = random_frame(3, 7, (41, 0))
        psi = random_frame(3, 7, (41, 1))
        forward = build(m, phi, psi)
        from framemult import conj

        backward = build(conj(m), psi, phi)
        assert op_norm(forward.matrix.conj().T - backward.matrix) < 1e-12

    def test_dimension_mismatch(self):
        m = new_symbol(np.ones(7))
        with pytest.raises(DimensionMismatch):
            build(m, random_frame(3, 7, 0), random_frame(3, 8, 0))
        with pytest.raises(DimensionMismatch):
            build(new_symbol(np.ones(6)), random_frame(3, 7, 0), random_frame(3, 7, 1))

    def test_left_right_dims_may_differ_is_rejected(self):
        # both frames must live on the same space for the report machinery
        with pytest.raises(DimensionMismatch):
            build(new_symbol(np.ones(7)), random_frame(3, 7, 0), random_frame(4, 7, 0))

    def test_overflowing_matrix_is_a_numerical_overflow(self):
        # Finite frames and a finite symbol whose realized matrix overflows;
        # the diagnostics would otherwise read sigma_min = nan.
        f = random_frame(3, 7, (37, 0))
        m = new_symbol(np.full(7, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite((f.synth * m.values) @ f.analysis_op).all()
            with pytest.raises(NumericalOverflow, match="overflows"):
                build(m, f, f)

    @pytest.mark.parametrize(
        "fn",
        [
            thm1_report,
            gamma_of,
            theta_of,
            dagger_frames,
            canonical_inverse_candidate,
            equivalence_criterion,
        ],
    )
    @pytest.mark.parametrize("field", ["symbol", "matrix"])
    def test_a_multiplier_not_made_by_build_is_shape_checked(self, fn, field):
        # Without the check at construction, each function reached a numpy
        # broadcast ValueError.
        phi, psi = random_frame(3, 7, (43, 0)), random_frame(3, 7, (43, 1))
        mult = build(random_symbol(7, 0.5, 2.0, (43, 2)), phi, psi)
        bad = {"symbol": random_symbol(8, 0.5, 2.0, (43, 3)), "matrix": np.eye(4, dtype=complex)}[field]
        with pytest.raises(DimensionMismatch):
            fn(replace(mult, **{field: bad}))

    def test_inv_diag_flags_singular(self):
        m = new_symbol([0.0, 1.0, 1.0])
        mult = build(m, onb(3), onb(3))
        assert not mult.inv_diag.invertible
        assert mult.inv_diag.sigma_min == pytest.approx(0.0, abs=1e-14)


class TestInvert:
    def test_diagonal_inverse(self):
        m = new_symbol([1.0, 2.0, 4.0])
        mult = build(m, onb(3), onb(3))
        assert np.allclose(invert(mult), np.diag([1.0, 0.5, 0.25]))

    def test_residual_identity(self):
        mult = invertible_multiplier(3)
        minv = invert(mult)
        assert op_norm(mult.matrix @ minv - np.eye(4)) < 1e-8

    def test_singular_raises(self):
        mult = build(new_symbol([0.0, 1.0, 1.0]), onb(3), onb(3))
        with pytest.raises(Singular):
            invert(mult)


class TestCanonicalInverseCandidate:
    def test_onb_candidate_is_exact(self):
        m = new_symbol([1.0, 2.0, 4.0])
        mult = build(m, onb(3), onb(3))
        assert np.allclose(canonical_inverse_candidate(mult), invert(mult))

    def test_scaled_tight_frame_candidate_is_exact(self):
        # right frame built from the left one absorbs the symbol; with the
        # left frame tight both canonical duals line up with the true inverse
        phi = harmonic_tight(3, 7)
        m = random_symbol(7, 0.5, 2.0, 19)
        psi = scale_by_symbol(phi, m)
        mult = build(m, phi, psi)
        candidate = canonical_inverse_candidate(mult)
        assert rel_residual(candidate, invert(mult)) < 1e-9

    def test_generic_candidate_misses(self):
        mult = invertible_multiplier(7)
        candidate = canonical_inverse_candidate(mult)
        # the canonical-dual formula is not the inverse for unrelated frames
        assert rel_residual(candidate, invert(mult)) > 1e-5


class TestDaggerFrames:
    def test_onb_daggers_are_reciprocal_scaled(self):
        m = new_symbol([1.0, 2.0, 4.0])
        mult = build(m, onb(3), onb(3))
        psi_dag, phi_dag = dagger_frames(mult)
        # M^{-1} Phi D_m = D_{1/m} D_m = I and M^{-H} Psi D_conj(m) = I
        assert np.allclose(psi_dag.synth, np.eye(3))
        assert np.allclose(phi_dag.synth, np.eye(3))

    def test_daggers_are_duals(self):
        mult = invertible_multiplier(11)
        psi_dag, phi_dag = dagger_frames(mult)
        eye = np.eye(4)
        assert op_norm(psi_dag.synth @ mult.right.analysis_op - eye) < 1e-8
        assert op_norm(phi_dag.synth @ mult.left.analysis_op - eye) < 1e-8

    def test_inverse_representations_from_daggers(self):
        from framemult import reciprocal

        mult = invertible_multiplier(13)
        minv = invert(mult)
        psi_dag, phi_dag = dagger_frames(mult)
        inv_m = reciprocal(mult.symbol)
        phi_tilde = canonical_dual(mult.left).frame
        psi_tilde = canonical_dual(mult.right).frame
        via_psi_dag = build(inv_m, psi_dag, phi_tilde).matrix
        via_phi_dag = build(inv_m, psi_tilde, phi_dag).matrix
        assert rel_residual(via_psi_dag, minv) < 1e-8
        assert rel_residual(via_phi_dag, minv) < 1e-8

    def test_dagger_choice_is_the_unique_working_dual(self):
        from framemult import reciprocal

        mult = invertible_multiplier(17)
        minv = invert(mult)
        inv_m = reciprocal(mult.symbol)
        phi_tilde = canonical_dual(mult.left).frame
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        other_dual = random_dual(mult.right, w).frame
        wrong = build(inv_m, other_dual, phi_tilde).matrix
        assert rel_residual(wrong, minv) > 1e-4

    def test_riesz_right_frame_dagger_is_canonical(self):
        phi = random_frame(4, 4, (23, 0))
        psi = random_frame(4, 4, (23, 1))
        m = random_symbol(4, 0.5, 2.0, (23, 2))
        mult = build(m, phi, psi)
        if not mult.inv_diag.invertible:
            pytest.skip("random basis pair happened to be singular")
        psi_dag, _ = dagger_frames(mult)
        psi_tilde = canonical_dual(psi).frame
        assert rel_residual(psi_dag.synth, psi_tilde.synth) < 1e-8


class TestThm1Report:
    def test_onb_all_five_true(self):
        m = new_symbol([1.0, 2.0, 4.0])
        mult = build(m, onb(3), onb(3))
        rep = thm1_report(mult)
        assert rep.direct_equal
        assert rep.cond_i.holds and rep.cond_ii.holds
        assert rep.cond_iii.holds and rep.cond_iv.holds
        assert rep.consistent
        assert not rep.indeterminate
        # both sides of the first indicator are exactly 1 for an orthonormal pair
        assert rep.cond_i.lhs == pytest.approx(1.0)
        assert rep.cond_i.rhs == pytest.approx(1.0)

    def test_generic_negative_is_consistent_all_false(self):
        mult = invertible_multiplier(29)
        rep = thm1_report(mult)
        assert not rep.direct_equal
        assert not any(c.holds for c in rep.conditions)
        assert rep.consistent

    def test_square_positive_all_five_true(self):
        mult = scaled_equivalent_multiplier(31, d=4, n=4)
        rep = thm1_report(mult)
        assert rep.direct_equal
        assert all(c.holds for c in rep.conditions)
        assert rep.consistent

    def test_redundant_positive_splits_by_side(self):
        # with more vectors than dimensions the right-side indicators hold
        # but the left-side pair generally fails: the report records exactly
        # that mixed outcome rather than forcing agreement
        found_split = False
        for seed in range(6):
            mult = scaled_equivalent_multiplier((33, seed), d=4, n=9)
            rep = thm1_report(mult)
            assert rep.direct_equal
            assert rep.cond_i.holds
            assert rep.cond_ii.holds
            if not (rep.cond_iii.holds and rep.cond_iv.holds):
                found_split = True
                assert not rep.consistent
        assert found_split

    def test_report_residuals_are_small_on_positives(self):
        mult = scaled_equivalent_multiplier(37, d=3, n=3)
        rep = thm1_report(mult)
        assert rep.direct_residual < 1e-8
        for cond in rep.conditions:
            assert cond.residual < 1e-8

    def test_indeterminate_band_flags_near_threshold(self):
        # widen the equality tolerance so a clean negative instance lands in
        # the one-sided band just above it
        mult = invertible_multiplier(41)
        loose = Tol(rel_eq=0.2)
        rep = thm1_report(mult, loose)
        strict = thm1_report(mult)
        assert not strict.indeterminate
        if rep.indeterminate:
            residuals = [c.residual for c in rep.conditions] + [
                rel_residual(invert(mult), canonical_inverse_candidate(mult))
            ]
            assert any(0.2 < r <= 11.0 * 0.2 for r in residuals)

    def test_indeterminate_band_constructed_exactly(self):
        # force a residual into (rel_eq, 11 rel_eq] by tuning the tolerance
        # around a measured residual
        mult = invertible_multiplier(43)
        rep = thm1_report(mult)
        target = rep.cond_i.residual
        assert target > 0
        tuned = Tol(rel_eq=min(0.9, target / 2.0))
        rep2 = thm1_report(mult, tuned)
        assert rep2.indeterminate

    def test_frame_bound_lhs_matches_eigenvalue(self):
        mult = invertible_multiplier(47)
        rep = thm1_report(mult)
        a_psi, _ = frame_bounds(mult.right)
        a_phi, _ = frame_bounds(mult.left)
        assert rep.cond_i.lhs == pytest.approx(1.0 / a_psi, rel=1e-10)
        assert rep.cond_iii.lhs == pytest.approx(1.0 / a_phi, rel=1e-10)
