"""A lone matrix or frame against a stack of one.

herm_eig_extremes, new_frame and canonical_dual check one matrix or dual;
_herm_extremes and _dual_family check stacks. Both give the same bits and
the same verdicts, including for matrices whose symmetrization (H + H*)/2
overflows. _herm_extremes decides a lone matrix in Python scalars and a
stack in arrays; both paths give the same (skew, lambda_min, lambda_max).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemult import (
    DEFAULT_TOL,
    NotHermitian,
    NumericalOverflow,
    Tol,
    canonical_dual,
    harmonic_tight,
    herm_eig_extremes,
    new_frame,
    random_dual,
)
from framemult.frames import _dual_family
from framemult import linalg
from framemult.linalg import _herm_extremes
from framemult.suites import DEFAULT_DIMS, GENERATOR_NAMES, _make_frame

# Scales from 1e-150 to 1e150, and near the top of the double range, where
# (H + H*)/2 or its spectrum overflows.
SCALES = st.one_of(
    st.floats(-150.0, 150.0).map(lambda e: 10.0**e),
    st.sampled_from([1e306, 1e307, 5e307, 1.2e308]),
)
# A skew part as a multiple of the Hermitian threshold: none, near it, or far above it.
RATIOS = st.one_of(st.just(0.0), st.floats(0.25, 4.0), st.floats(1e2, 1e6))
TOLS = st.sampled_from([DEFAULT_TOL, Tol(rel_eq=1e-4)])


def _norm(a):
    return np.linalg.svd(a, compute_uv=False)[0]


def _unbounded(lo, hi):
    return ~(np.isfinite(lo) & np.isfinite(hi))


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_canonical_dual_matches_a_zero_w_family(generator):
    for index, (d, n) in enumerate(DEFAULT_DIMS):
        f = _make_frame(generator, d, n, (1608, index, 0), DEFAULT_TOL)
        lone = canonical_dual(f).frame
        zero = np.zeros((1, f.dim, f.count), dtype=np.complex128)
        family = _dual_family(f, zero, DEFAULT_TOL)[0].frame
        assert lone.synth.tobytes() == family.synth.tobytes()
        assert lone.cached_S.tobytes() == family.cached_S.tobytes()
        assert lone.bounds == family.bounds


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.integers(0, 8),
    RATIOS,
    SCALES,
    TOLS,
)
def test_lone_matrix_matches_a_stack_of_one(seed, d, rank, ratio, scale, tol):
    """scale * (B B* + E): B is d x min(rank, d), E skew with ||E|| = ratio * rel_eq * ||B B*||."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((d, min(rank, d))) + 1j * rng.standard_normal((d, min(rank, d)))
    h = b @ b.conj().T
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    e = a - a.conj().T
    if ratio and _norm(h) > 0.0:
        e = e * (ratio * tol.rel_eq * _norm(h) / _norm(e))
    else:
        e = 0.0 * e
    with np.errstate(over="ignore", invalid="ignore"):
        mat = scale * (h + e)
        if not np.isfinite(mat).all():
            return
        skew, lo, hi = _herm_extremes(mat[np.newaxis], tol)
        if skew[0]:
            with pytest.raises(NotHermitian):
                herm_eig_extremes(mat, tol)
        elif _unbounded(lo, hi)[0]:
            with pytest.raises(NumericalOverflow):
                herm_eig_extremes(mat, tol)
        else:
            got = herm_eig_extremes(mat, tol)
            assert all(type(x) is float for x in got)
            assert _bits(*got) == _bits(lo[0], hi[0])


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_operator_overflowing_when_symmetrized_is_numerical_overflow(d):
    # S = 1.44e308 I is finite; S + S* is not, and eigvalsh does not converge on it.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalOverflow):
            new_frame(1.2e154 * np.eye(d))
        with pytest.raises(NumericalOverflow):
            herm_eig_extremes(1.44e308 * np.eye(d))


def test_overflowing_symmetrization_is_unbounded_matrix_by_matrix():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    finite = a + a.conj().T
    # Diagonal overflows when symmetrized; the off-diagonal pair also overflows in H - H*.
    skewed = np.diag([1e308, 1e308, 1.0]).astype(np.complex128)
    skewed[0, 1], skewed[1, 0] = 1e308, -1e308
    stack = np.stack([finite, 1.44e308 * np.eye(3), skewed, finite])
    with np.errstate(over="ignore", invalid="ignore"):
        skew, lo, hi = _herm_extremes(stack, DEFAULT_TOL)
    alone_skew, alone_lo, alone_hi = _herm_extremes(finite[np.newaxis], DEFAULT_TOL)
    assert list(skew) == [False, False, True, False]
    assert list(_unbounded(lo, hi)) == [False, True, True, False]
    assert not alone_skew[0]
    for k in (0, 3):
        assert _bits(lo[k], hi[k]) == _bits(alone_lo[0], alone_hi[0])


def test_dual_family_with_an_overflowing_gram_raises_its_typed_error():
    f = new_frame(1e-153 * harmonic_tight(3, 6).synth)
    kernel_proj = f._kernel_proj
    # W = c P[:3, :] adds c^2 P[:3, :3] to the frame operator, whose diagonal
    # becomes 1.305e308: T_dual T_dual* stays finite, and its symmetrization
    # overflows on every diagonal entry, where eigvalsh does not converge.
    scale = np.sqrt(1.3e308) / np.sqrt(kernel_proj[0, 0].real)
    w = scale * kernel_proj[:3, :]
    zero = np.zeros_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        _dual_family(f, zero[np.newaxis], DEFAULT_TOL)
        with pytest.raises(NumericalOverflow):
            random_dual(f, w)
        with pytest.raises(NumericalOverflow):
            _dual_family(f, np.stack([zero, w, zero]), DEFAULT_TOL)


def test_canonical_dual_keeps_the_parents_cached_synth_and_new_frame_copies():
    f = harmonic_tight(3, 7)
    dual = canonical_dual(f).frame
    assert dual.synth is f._canonical_synth
    assert not dual.synth.flags.writeable and not dual.cached_S.flags.writeable
    columns = np.array(f.synth)
    g = new_frame(columns)
    columns[0, 0] = 5.0
    assert not np.shares_memory(g.synth, columns)
    assert g.synth.tobytes() == f.synth.tobytes()


def _lone_and_stacked(mat, tol):
    """_herm_extremes of mat alone and of the stack holding only mat, checked equal; the lone triple."""
    with np.errstate(over="ignore", invalid="ignore"):
        lone = _herm_extremes(mat, tol)
        skew, lo, hi = _herm_extremes(mat[np.newaxis], tol)
    assert type(lone[0]) is bool and type(lone[1]) is float and type(lone[2]) is float
    assert lone[0] == bool(skew[0])
    assert _bits(*lone[1:]) == _bits(lo[0], hi[0])
    return lone


def _near_the_clear_bound(seed, d, factor, tol):
    """H + t E: H Hermitian, E skew, t such that d max|(H + tE) - (H + tE)*| is factor
    times rel_eq max|lambda(H)|; the bound rule clears up to factor 1/2."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h, e = a + a.conj().T, b - b.conj().T
    threshold = tol.rel_eq * np.abs(np.linalg.eigvalsh(h)).max() / d
    return h + (factor * threshold / (2.0 * np.abs(e).max())) * e


# Hermitian, just cleared, just not cleared (the exact SVD decides), either way, and skew.
FACTORS = st.one_of(st.sampled_from([0.0, 0.49, 0.51, 1.5, 1e3]), st.floats(0.0, 1e4))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8), FACTORS, SCALES, TOLS)
def test_lone_rule_matches_the_stack_rule(seed, d, factor, scale, tol):
    with np.errstate(over="ignore", invalid="ignore"):
        mat = scale * _near_the_clear_bound(seed, d, factor, tol)
    if np.isfinite(mat).all():
        _lone_and_stacked(mat, tol)


@pytest.mark.parametrize("factor, svd_calls", [(0.49, 0), (0.51, 2)])
def test_lone_matrix_runs_the_exact_rule_only_when_the_bound_fails(monkeypatch, factor, svd_calls):
    shapes = []
    op_norms = linalg._op_norms

    def counting(stack):
        shapes.append(stack.shape)
        return op_norms(stack)

    monkeypatch.setattr(linalg, "_op_norms", counting)
    mat = _near_the_clear_bound(5, 4, factor, DEFAULT_TOL)
    assert _lone_and_stacked(mat, DEFAULT_TOL)[0] is False
    assert shapes == [(4, 4)] * svd_calls + [(1, 4, 4)] * svd_calls


@pytest.mark.parametrize(
    "h, skew, finite",
    [
        ([[0.0, 1e308], [-1e308, 0.0]], True, True),  # H - H* overflows; (H + H*)/2 = 0
        ([[1e308, 1.5e308j], [1.5e308j, 0.0]], True, False),  # complex symmetric
        ([[1e308, 1e308], [-1e308, 1e308]], True, False),  # both overflow
        ([[1.44e308, 0.0], [0.0, 1.44e308]], False, False),  # (H + H*)/2 overflows: NaN extremes
        ([[1.5e308, 1e308], [1e308, 1.5e308]], False, False),
    ],
)
def test_lone_rule_matches_the_stack_rule_on_overflow(h, skew, finite):
    got_skew, lo, hi = _lone_and_stacked(np.array(h, dtype=np.complex128), DEFAULT_TOL)
    assert got_skew is skew
    assert (math.isfinite(lo) and math.isfinite(hi)) is finite
