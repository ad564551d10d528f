"""A lone matrix or frame against a stack of one, and the one Hermitian rule.

new_frame and canonical_dual check one frame or dual; frames._dual checks
each dual carved out by a W the same way. Both give the same bits and the same
verdicts, including for matrices whose symmetrization (H + H*)/2 overflows.
herm_eig_extremes decides its one matrix by the SVD-only rule:
NotHermitian when H - H* has a non-finite entry or ||H - H*|| >
rel_eq ||H||, NumericalOverflow when an extreme of (H + H*)/2 is not finite,
else the extremes with the bits eigvalsh gives.
"""

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
from framemult.frames import _dual
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


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def _reference(mat, tol):
    """The SVD-only rule on one matrix: NotHermitian, NumericalOverflow or (lambda_min, lambda_max)."""
    with np.errstate(over="ignore", invalid="ignore"):
        skew = mat - mat.conj().T
        sym = (mat + mat.conj().T) / 2.0
    if not np.isfinite(skew).all() or _norm(skew) > tol.rel_eq * _norm(mat):
        return NotHermitian
    if not np.isfinite(sym).all():
        return NumericalOverflow
    eigenvalues = np.linalg.eigvalsh(sym)
    if not np.isfinite(eigenvalues).all():
        return NumericalOverflow
    return eigenvalues[0], eigenvalues[-1]


def _lone(mat, tol):
    """herm_eig_extremes of mat, checked against _reference; the error class or the two floats."""
    want = _reference(mat, tol)
    if isinstance(want, type):
        with pytest.raises(want):
            herm_eig_extremes(mat, tol)
        return want
    got = herm_eig_extremes(mat, tol)
    assert all(type(x) is float for x in got)
    assert _bits(*got) == _bits(*want)
    return got


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_canonical_dual_matches_the_zero_w_dual(generator):
    for index, (d, n) in enumerate(DEFAULT_DIMS):
        f = _make_frame(generator, d, n, (1608, index, 0), DEFAULT_TOL)
        lone = canonical_dual(f).frame
        zero = _dual(f, np.zeros((f.dim, f.count), dtype=np.complex128), DEFAULT_TOL).frame
        # + 0.0 maps -0.0 to +0.0: whether a GEMM leaves a zero entry signed depends on its kernel.
        assert (lone.synth + 0.0).tobytes() == (zero.synth + 0.0).tobytes()
        assert (lone.cached_S + 0.0).tobytes() == (zero.cached_S + 0.0).tobytes()
        assert lone.bounds == zero.bounds


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
    if np.isfinite(mat).all():
        _lone(mat, tol)


@pytest.mark.parametrize("d", range(2, 9))
def test_frame_operator_overflowing_when_symmetrized_is_numerical_overflow(d):
    # S = 1.44e308 I is finite; S + S* is not, and eigvalsh does not converge on it.
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
    verdicts = [_lone(mat, DEFAULT_TOL) for mat in stack]
    assert verdicts[1:3] == [NumericalOverflow, NotHermitian]
    assert _bits(*verdicts[0]) == _bits(*verdicts[3])


def test_dual_family_with_an_overflowing_gram_raises_its_typed_error():
    f = new_frame(1e-153 * harmonic_tight(3, 6).synth)
    kernel_proj = f._kernel_proj
    # W = c P[:3, :] adds c^2 P[:3, :3] to the frame operator, whose diagonal
    # becomes 1.305e308: T_dual T_dual* stays finite, and its symmetrization
    # overflows on every diagonal entry, where eigvalsh does not converge.
    scale = np.sqrt(1.3e308) / np.sqrt(kernel_proj[0, 0].real)
    w = scale * kernel_proj[:3, :]
    zero = np.zeros_like(w)
    _dual(f, zero, DEFAULT_TOL)
    with pytest.raises(NumericalOverflow):
        random_dual(f, w)
    with pytest.raises(NumericalOverflow):
        [_dual(f, x, DEFAULT_TOL) for x in (zero, w, zero)]


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
        _lone(mat, tol)


@pytest.mark.parametrize(
    "h, skew, finite",
    [
        ([[0.0, 1e308], [-1e308, 0.0]], True, True),  # H - H* overflows; (H + H*)/2 = 0
        ([[1e308, 1.5e308j], [1.5e308j, 0.0]], True, False),  # complex symmetric
        ([[1e308, 1e308], [-1e308, 1e308]], True, False),  # both overflow
        ([[1.44e308, 0.0], [0.0, 1.44e308]], False, False),  # (H + H*)/2 overflows: no extremes
        ([[1.5e308, 1e308], [1e308, 1.5e308]], False, False),
    ],
)
def test_lone_rule_matches_the_stack_rule_on_overflow(h, skew, finite):
    verdict = _lone(np.array(h, dtype=np.complex128), DEFAULT_TOL)
    assert (verdict is NotHermitian) is skew
    assert (verdict is NumericalOverflow) is (not skew and not finite)
