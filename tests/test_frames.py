"""Frames: construction, bounds, duals, and the kernel projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemult import (
    DimensionMismatch,
    InvalidDual,
    NotAFrame,
    Tol,
    analysis,
    canonical_dual,
    equivalence_map,
    frame_bounds,
    harmonic_tight,
    is_riesz_basis,
    new_frame,
    new_symbol,
    onb,
    proj_ker_synthesis,
    random_dual,
    random_frame,
    scale_by_symbol,
    synthesis,
)
from framemult.linalg import herm_eig_extremes, op_norm


def _mercedes():
    """Three unit vectors in the plane at 120 degrees: a tight frame with bound 3/2."""
    angles = np.array([np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3])
    return new_frame(np.vstack([np.cos(angles), np.sin(angles)]))


class TestNewFrame:
    def test_identity_bounds(self):
        f = new_frame(np.eye(3))
        assert f.bounds == pytest.approx((1.0, 1.0))
        assert f.dim == 3
        assert f.count == 3

    def test_mercedes_tight(self):
        a, b = _mercedes().bounds
        assert a == pytest.approx(1.5)
        assert b == pytest.approx(1.5)

    def test_rejects_rank_deficient(self):
        cols = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NotAFrame):
            new_frame(cols)

    def test_rejects_too_few_vectors(self):
        with pytest.raises(NotAFrame):
            new_frame(np.ones((3, 2)))

    def test_synth_read_only(self):
        f = new_frame(np.eye(2))
        with pytest.raises(ValueError):
            f.synth[0, 0] = 7.0

    def test_cached_frame_operator(self):
        f = random_frame(3, 7, 5)
        assert np.allclose(f.cached_S, f.synth @ f.synth.conj().T)


class TestAnalysisSynthesis:
    def test_onb_coefficients(self):
        f = new_frame(np.eye(3))
        vec = np.array([1.0, 2.0j, -1.0])
        assert np.allclose(analysis(f, vec), vec.conj().conj())
        assert np.allclose(synthesis(f, vec), vec)

    def test_scalar_loop_oracle(self):
        # analysis entry k must be <f, phi_k> with conjugation on the frame vector
        f = random_frame(4, 9, 17)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs = analysis(f, vec)
        for k in range(9):
            expected = sum(vec[i] * np.conj(f.synth[i, k]) for i in range(4))
            assert abs(coeffs[k] - expected) < 1e-12

        weights = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        out = synthesis(f, weights)
        for i in range(4):
            expected = sum(weights[k] * f.synth[i, k] for k in range(9))
            assert abs(out[i] - expected) < 1e-12

    def test_dimension_mismatch(self):
        f = new_frame(np.eye(3))
        with pytest.raises(DimensionMismatch):
            analysis(f, np.ones(4))
        with pytest.raises(DimensionMismatch):
            synthesis(f, np.ones(4))


class TestFrameBounds:
    def test_rayleigh_quotients_inside_bounds(self):
        f = random_frame(5, 12, 23)
        a, b = frame_bounds(f)
        rng = np.random.default_rng(9)
        tightest_lo, tightest_hi = np.inf, 0.0
        for _ in range(500):
            x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            q = np.linalg.norm(analysis(f, x)) ** 2 / np.linalg.norm(x) ** 2
            tightest_lo = min(tightest_lo, q)
            tightest_hi = max(tightest_hi, q)
            assert a - 1e-10 <= q <= b + 1e-10
        # eigenvector directions attain the bounds; random sampling gets close
        assert tightest_lo < a * 3
        assert tightest_hi > b / 3

    def test_bounds_attained_on_eigenvectors(self):
        f = random_frame(4, 9, 31)
        a, b = frame_bounds(f)
        vals, vecs = np.linalg.eigh(f.cached_S)
        lo_dir, hi_dir = vecs[:, 0], vecs[:, -1]
        assert np.linalg.norm(analysis(f, lo_dir)) ** 2 == pytest.approx(a, rel=1e-9)
        assert np.linalg.norm(analysis(f, hi_dir)) ** 2 == pytest.approx(b, rel=1e-9)


class TestCanonicalDual:
    def test_onb_self_dual(self):
        f = new_frame(np.eye(3))
        d = canonical_dual(f)
        assert np.allclose(d.frame.synth, f.synth)

    def test_tight_frame_rescales(self):
        f = _mercedes()
        d = canonical_dual(f)
        assert np.allclose(d.frame.synth, f.synth / 1.5)

    def test_reconstruction_both_orders(self):
        f = random_frame(3, 8, 41)
        d = canonical_dual(f).frame
        eye = np.eye(3)
        assert op_norm(f.synth @ d.analysis_op - eye) < 1e-10
        assert op_norm(d.synth @ f.analysis_op - eye) < 1e-10

    def test_frame_operator_inverts(self):
        f = random_frame(4, 10, 43)
        d = canonical_dual(f).frame
        assert op_norm(d.cached_S @ f.cached_S - np.eye(4)) < 1e-9

    def test_involution(self):
        f = random_frame(3, 7, 47)
        back = canonical_dual(canonical_dual(f).frame).frame
        assert np.allclose(back.synth, f.synth, atol=1e-10)

    def test_dual_upper_bound_is_reciprocal_lower(self):
        f = random_frame(4, 9, 53)
        a, _ = frame_bounds(f)
        _, b_dual = frame_bounds(canonical_dual(f).frame)
        assert b_dual == pytest.approx(1.0 / a, rel=1e-9)


class TestRandomDual:
    def test_zero_w_is_canonical(self):
        f = random_frame(3, 7, 59)
        d = random_dual(f, np.zeros((3, 7)))
        canon = canonical_dual(f).frame
        assert np.allclose(d.frame.synth, canon.synth, atol=1e-12)

    def test_riesz_basis_has_unique_dual(self):
        f = random_frame(4, 4, 61)
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        d = random_dual(f, w)
        canon = canonical_dual(f).frame
        assert np.allclose(d.frame.synth, canon.synth, atol=1e-9)

    def test_redundant_frame_admits_other_duals(self):
        f = random_frame(3, 8, 67)
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        d = random_dual(f, w)
        canon = canonical_dual(f).frame
        assert not np.allclose(d.frame.synth, canon.synth, atol=1e-6)
        # still a dual: perfect reconstruction
        assert op_norm(d.frame.synth @ f.analysis_op - np.eye(3)) < 1e-9

    def test_v_part_lives_in_kernel(self):
        f = random_frame(3, 8, 71)
        rng = np.random.default_rng(4)
        w = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        d = random_dual(f, w)
        # columns of the correction are annihilated by the synthesis map
        assert op_norm(f.synth @ d.v_part.conj().T) < 1e-10

    def test_rejects_wrong_shape(self):
        f = random_frame(3, 8, 73)
        with pytest.raises(DimensionMismatch):
            random_dual(f, np.zeros((4, 8)))


class TestKernelProjection:
    def test_projection_identities(self):
        f = random_frame(4, 11, 79)
        p = proj_ker_synthesis(f)
        assert op_norm(p @ p - p) < 1e-10
        assert op_norm(p - p.conj().T) < 1e-10
        assert op_norm(f.synth @ p) < 1e-10

    def test_rank_is_count_minus_dim(self):
        f = random_frame(4, 11, 83)
        p = proj_ker_synthesis(f)
        assert round(np.real(np.trace(p))) == 11 - 4

    def test_zero_for_basis(self):
        f = random_frame(5, 5, 89)
        assert op_norm(proj_ker_synthesis(f)) < 1e-9


class TestRieszAndScaling:
    def test_is_riesz_basis(self):
        assert is_riesz_basis(random_frame(4, 4, 97))
        assert not is_riesz_basis(random_frame(4, 9, 97))

    def test_scale_by_ones_is_identity(self):
        f = random_frame(3, 7, 101)
        g = scale_by_symbol(f, new_symbol(np.ones(7)))
        assert np.array_equal(g.synth, f.synth)

    def test_scaled_onb_bounds(self):
        f = onb(3)
        g = scale_by_symbol(f, new_symbol([1.0, 2.0, 3.0]))
        a, b = g.bounds
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(9.0)

    def test_scaled_synthesis_matches_diagonal_product(self):
        f = random_frame(4, 9, 103)
        m = new_symbol(np.linspace(0.5, 2.0, 9) * np.exp(1j * np.arange(9)))
        g = scale_by_symbol(f, m)
        assert np.allclose(g.synth, f.synth @ m.diag())

    def test_scaled_lower_bound_floor(self):
        f = random_frame(3, 8, 107)
        m = new_symbol(np.linspace(0.5, 2.0, 8))
        g = scale_by_symbol(f, m)
        a, _ = f.bounds
        lo, _ = g.bounds
        assert lo >= (m.inf_mod**2) * a - 1e-8

    def test_zero_weight_on_basis_breaks_frame(self):
        with pytest.raises(NotAFrame):
            scale_by_symbol(onb(3), new_symbol([0.0, 1.0, 1.0]))


class TestEquivalenceMap:
    def test_self_is_identity(self):
        f = random_frame(3, 7, 109)
        v = equivalence_map(f, f)
        assert v is not None
        assert op_norm(v - np.eye(3)) < 1e-9

    def test_scalar_multiple(self):
        f = random_frame(3, 7, 113)
        g = new_frame(2.0 * f.synth)
        v = equivalence_map(f, g)
        assert v is not None
        assert op_norm(v - 2.0 * np.eye(3)) < 1e-9

    def test_independent_frames_unrelated(self):
        f = random_frame(3, 7, (127, 0))
        g = random_frame(3, 7, (127, 1))
        assert equivalence_map(f, g) is None

    def test_recovers_the_map(self):
        f = random_frame(3, 7, 131)
        v0 = random_frame(3, 3, 137).synth
        g = new_frame(v0 @ f.synth)
        v = equivalence_map(f, g)
        assert v is not None
        assert op_norm(v - v0) < 1e-8 * max(1.0, op_norm(v0))

    def test_harmonic_vs_onb_same_count(self):
        # same count, same dim, but no invertible map carries one onto the other
        f = harmonic_tight(3, 6)
        g = random_frame(3, 6, 139)
        assert equivalence_map(f, g) is None


class TestDualityValidation:
    def test_invalid_dual_detected(self):
        # hand-build a dual check failure by pairing with the wrong parent
        f = random_frame(3, 7, (149, 0))
        other = random_frame(3, 7, (149, 1))
        from framemult.frames import _check_dual

        with pytest.raises(InvalidDual):
            _check_dual(other, canonical_dual(f).frame.synth, Tol())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_frame_inequality_property(seed):
    f = random_frame(3, 7, (seed, 0))
    a, b = frame_bounds(f)
    rng = np.random.default_rng((seed, 1))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    energy = np.linalg.norm(analysis(f, x)) ** 2
    nx = np.linalg.norm(x) ** 2
    assert a * nx * (1 - 1e-10) <= energy <= b * nx * (1 + 1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_dual_reconstructs_property(seed):
    f = random_frame(3, 7, (seed, 0))
    d = canonical_dual(f).frame
    rng = np.random.default_rng((seed, 1))
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rebuilt = synthesis(f, analysis(d, x))
    assert np.linalg.norm(rebuilt - x) <= 1e-8 * max(1.0, np.linalg.norm(x))
