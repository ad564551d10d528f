"""The stacked dual-family kernel against a dual-by-dual reference."""

import numpy as np
import pytest

from framemult import (
    InvalidArgument,
    InvalidDual,
    NotAFrame,
    Singular,
    Tol,
    canonical_dual,
    gamma_of,
    invert,
    new_frame,
    proj_ker_synthesis,
    random_dual,
    random_frame,
    riesz_basis,
    sample_duals,
    theta_of,
    verify_gamma_decomposition,
    verify_theta_decomposition,
)
from framemult.frames import _dual_family
from framemult.linalg import op_norm
from tests.conftest import invertible_multiplier

FRAMES = {
    "4x9": lambda: random_frame(4, 9, (211, 0)),
    "8x17": lambda: random_frame(8, 17, (211, 1)),
    "riesz3": lambda: riesz_basis(3, (211, 2)),
}


def _loop_draws(f, count, seed):
    """The W matrices of sample_duals, drawn one dual at a time."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        w = rng.standard_normal((f.dim, f.count)) + 1j * rng.standard_normal((f.dim, f.count))
        draws.append(w / op_norm(w))
    return draws


def _reference_dual(f, w, tol):
    """One dual built and checked step by step: S^{-1}T + W(I - U S^{-1}T)."""
    s_inv_t = np.linalg.solve(f.cached_S, f.synth)
    v = w @ (np.eye(f.count) - f.analysis_op @ s_inv_t)
    synth = s_inv_t + v
    recon = synth @ f.analysis_op
    if op_norm(recon - np.eye(f.dim)) > tol.rel_eq * max(1.0, op_norm(recon)):
        raise InvalidDual("reconstruction T_dual U_parent deviates from the identity")
    return new_frame(synth, tol), v


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_sample_duals_matches_dual_by_dual_loop(name):
    f = FRAMES[name]()
    count = 12
    duals = sample_duals(f, count=count, rng=np.random.default_rng(5))
    draws = _loop_draws(f, count, 5)
    assert len(duals) == count + 1
    canon = canonical_dual(f)
    assert np.array_equal(duals[0].frame.synth, canon.frame.synth)
    assert np.array_equal(duals[0].v_part, np.zeros((f.dim, f.count)))
    for dual, w in zip(duals[1:], draws):
        single = random_dual(f, w)
        ref_frame, ref_v = _reference_dual(f, w, Tol())
        for got in (dual, single):
            assert got.parent is f
            assert np.array_equal(got.frame.synth, ref_frame.synth)
            assert np.array_equal(got.v_part, ref_v)
            assert np.array_equal(got.frame.cached_S, ref_frame.cached_S)
            assert got.frame.bounds == ref_frame.bounds


def test_dual_arrays_are_read_only():
    f = FRAMES["4x9"]()
    for dual in sample_duals(f, count=3):
        for arr in (dual.frame.synth, dual.frame.cached_S, dual.v_part):
            assert not arr.flags.writeable


@pytest.mark.parametrize(
    "verify, make, side",
    [
        (verify_gamma_decomposition, gamma_of, "left"),
        (verify_theta_decomposition, theta_of, "right"),
    ],
)
def test_verify_rejects_wrong_parent_in_last_position(verify, make, side):
    mult = invertible_multiplier(223)
    parent = getattr(mult, side)
    other = mult.right if side == "left" else mult.left
    rep = make(mult)
    good = sample_duals(parent, count=4)
    assert len(verify(mult, rep, good).decomposition_residuals) == 5
    wrong = sample_duals(other, count=1)[-1]
    with pytest.raises(InvalidDual):
        verify(mult, rep, good + [wrong])


def _reference_error(f, ws, tol):
    """Class of the error a dual-by-dual loop raises first, or None."""
    try:
        for w in ws:
            _reference_dual(f, w, tol)
    except (InvalidDual, NotAFrame, ValueError) as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "order",
    [
        ("rank", "duality"),
        ("duality", "rank"),
        ("ok", "rank", "duality"),
        ("ok", "duality", "rank"),
        ("ok", "ok", "rank"),
        ("ok", "overflow"),
        ("rank", "overflow"),
        ("overflow", "rank"),
        ("ok", "gram_overflow", "overflow"),
    ],
)
def test_stacked_path_raises_the_loop_error_first(order):
    f = random_frame(3, 7, (227, 0))
    rng = np.random.default_rng(9)
    tol = Tol(inv_cond=1e-4)
    p0 = proj_ker_synthesis(f)[:, 0]
    w_for = {
        # W = 0: the canonical dual, conditioned like f itself
        "ok": np.zeros((3, 7)),
        # a large rank-one W stretches one direction: still a dual, but its
        # frame operator fails the rank test at inv_cond = 1e-4
        "rank": 1e4 * np.outer(np.eye(3)[0], rng.standard_normal(7)),
        # a huge W leaves roundoff of order 1e-4 in T_dual U - I
        "duality": 1e12 * rng.standard_normal((3, 7)),
        # W aligned with column 0 of the kernel projection: W(I - U S^{-1}T)
        # overflows, so the finiteness test on T_dual U comes first
        "overflow": np.tile(1.7e308 * np.conj(p0) / np.abs(p0), (3, 1)),
        # T_dual U stays finite and fails duality; only T_dual T_dual* overflows
        "gram_overflow": 1e160 * rng.standard_normal((3, 7)),
    }
    ws = np.array([w_for[kind] for kind in order], dtype=np.complex128)
    first_bad = next(kind for kind in order if kind != "ok")
    expected = {
        "rank": NotAFrame,
        "duality": InvalidDual,
        "overflow": InvalidArgument,
        "gram_overflow": InvalidDual,
    }[first_bad]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _reference_error(f, ws, tol) is expected
    with pytest.raises(expected):
        _dual_family(f, ws, tol)


def test_memoized_invert_still_judges_each_tol():
    mult = invertible_multiplier(229)
    minv = invert(mult)
    residual = op_norm(mult.matrix @ minv - np.eye(mult.left.dim))
    assert residual > 0.0
    assert invert(mult) is minv
    assert not minv.flags.writeable
    with pytest.raises(Singular):
        invert(mult, Tol(rel_eq=residual / 2.0))
    assert invert(mult, Tol(rel_eq=2.0 * residual)) is minv


def test_verify_rejects_dual_of_other_shape():
    mult = invertible_multiplier(233)
    other = random_frame(3, 9, (233, 5))
    duals = sample_duals(mult.left, count=2) + [canonical_dual(other)]
    with pytest.raises(InvalidDual, match="do not match parent 4x9"):
        verify_gamma_decomposition(mult, gamma_of(mult), duals)
