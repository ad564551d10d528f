"""Finite matrices whose Hermitian check or extremal eigenvalues overflow."""

import numpy as np
import pytest

from framemult import (
    NotAFrame,
    NotHermitian,
    NumericalOverflow,
    Tol,
    canonical_dual,
    harmonic_tight,
    herm_eig_extremes,
    new_frame,
    random_dual,
)
from framemult.frames import _dual


@pytest.mark.parametrize(
    "h",
    [
        # H - H* and H + H* both overflow
        [[1e308, 1e308], [-1e308, 1e308]],
        # only H - H* overflows; (H + H*)/2 = 0 has finite extremes
        [[0.0, 1e308], [-1e308, 0.0]],
        # complex symmetric, |h_01 - conj(h_10)| = 3e308
        [[1e308, 1.5e308j], [1.5e308j, 0.0]],
    ],
)
def test_overflowing_skew_part_is_not_hermitian(h):
    with pytest.raises(NotHermitian):
        herm_eig_extremes(np.array(h))


@pytest.mark.parametrize(
    "h",
    [
        # Hermitian, but H + H* overflows
        [[1.5e308, 1e308], [1e308, 1.5e308]],
        [[1e308, 0.0], [0.0, 1e308]],
    ],
)
def test_hermitian_matrix_with_overflowing_extremes_is_rejected(h):
    # NumericalOverflow comes only after the Hermitian check has passed.
    with pytest.raises(NumericalOverflow):
        herm_eig_extremes(np.array(h, dtype=np.complex128), Tol())


def test_overflowing_stack_entries_are_flagged_matrix_by_matrix():
    stack = np.array(
        [
            [[2.0, 1j], [-1j, 3.0]],
            [[0.0, 1e308], [-1e308, 0.0]],
            [[1.0, 2.0], [0.0, 1.0]],
        ],
        dtype=np.complex128,
    )
    assert herm_eig_extremes(stack[0], Tol()) == tuple(np.linalg.eigvalsh(stack[0])[[0, -1]])
    for mat in stack[1:]:
        with pytest.raises(NotHermitian):
            herm_eig_extremes(mat, Tol())


def test_frame_bounds_are_never_nan():
    # S = 1.44e308 I is finite, but (S + S*)/2 overflows on the way.
    with pytest.raises(NumericalOverflow):
        new_frame(1.2e154 * np.eye(2))
    # S^{-1} of a tiny frame is the canonical dual's frame operator.
    tiny = new_frame(8.2e-155 * np.eye(2))
    with pytest.raises(NumericalOverflow):
        canonical_dual(tiny)


def _tiny_tight_frame():
    """1e-153 times a 2x4 harmonic frame: its duals live near the top of the double range."""
    return new_frame(1e-153 * harmonic_tight(2, 4).synth)


def _w_for(f, kind):
    """W stretching row 0 of the dual along column 0 of the kernel projection."""
    p0 = np.eye(f.count)[:, 0] - f.analysis_op @ np.linalg.solve(f.cached_S, f.synth[:, 0])
    scale = {"ok": 0.0, "rank": 2e153, "unbounded": 1.55e154}[kind]
    return scale * np.outer(np.eye(f.dim)[0], p0.conj())


def test_dual_kinds_fail_as_labelled():
    f = _tiny_tight_frame()
    tol = Tol(inv_cond=0.5)
    kernel_proj = np.eye(f.count) - f.analysis_op @ np.linalg.solve(f.cached_S, f.synth)
    random_dual(f, _w_for(f, "ok"), tol)
    with pytest.raises(NotAFrame):
        random_dual(f, _w_for(f, "rank"), tol)
    # A finite dual whose frame operator is finite but overflows when symmetrized.
    synth = np.linalg.solve(f.cached_S, f.synth) + _w_for(f, "unbounded") @ kernel_proj
    assert np.isfinite(synth @ synth.conj().T).all()
    with pytest.raises(NumericalOverflow):
        new_frame(synth, tol)


@pytest.mark.parametrize(
    "order",
    [
        ("ok", "unbounded"),
        ("unbounded", "rank"),
        ("rank", "unbounded"),
        ("ok", "rank", "unbounded"),
    ],
)
def test_each_dual_by_dual_path_raises_the_first_error(order):
    f = _tiny_tight_frame()
    tol = Tol(inv_cond=0.5)
    ws = np.array([_w_for(f, kind) for kind in order])
    first_bad = next(kind for kind in order if kind != "ok")
    expected = {"rank": NotAFrame, "unbounded": NumericalOverflow}[first_bad]
    with pytest.raises(expected):
        for w in ws:  # dual by dual
            random_dual(f, w, tol)
    with pytest.raises(expected):
        [_dual(f, w, tol) for w in ws]  # as sample_duals builds its family
