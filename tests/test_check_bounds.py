"""The Hermitian check, the duality check, and the per-frame canonical-dual memo.

These tests hold the Hermitian check to its SVD-only rule and the duality
check to the rule's quotient, one matrix at a time, at scales from 1e-150 to
1e150, with deviations far from and within a factor 4 of each threshold.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemult import (
    DEFAULT_TOL,
    NotAFrame,
    NotHermitian,
    Tol,
    canonical_dual,
    herm_eig_extremes,
    new_frame,
    random_frame,
)
from framemult import frames
from framemult.frames import _not_dual

SCALES = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)
# A deviation as a multiple of the threshold: near it, or far below or above it.
RATIOS = st.one_of(
    st.floats(0.25, 4.0),
    st.floats(1e-6, 1e-2),
    st.floats(1e2, 1e6),
    st.just(0.0),
)
TOLS = st.sampled_from([DEFAULT_TOL, Tol(rel_eq=1e-4)])


def _norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _svd_skew(stack, tol):
    """The SVD-only Hermitian rule: ||H - H*|| > rel_eq * ||H||."""
    return _norms(stack - stack.conj().swapaxes(-1, -2)) > tol.rel_eq * _norms(stack)


def _svd_not_dual(recon, tol):
    """The duality rule by np.linalg.svd: ||R - I|| / max(1, ||R||) > rel_eq for one d x d R."""
    return bool(_norms(recon - np.eye(recon.shape[0])) / max(1.0, _norms(recon)) > tol.rel_eq)


def _unit(rng, d, flat=False):
    """A unit-norm direction: random, or flat (equal entries, where ||A|| = d max|a_ij|)."""
    if flat:
        a = 1j * np.ones((d, d))
    else:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a / _norms(a)


def _herm_stack(seed, d, deviations, scale, tol):
    """scale * (H + E) per (ratio, flat): H Hermitian, E skew, ||2E|| = ratio * rel_eq * ||H||."""
    rng = np.random.default_rng(seed)
    mats = []
    for ratio, flat in deviations:
        a = _unit(rng, d)
        h = a + a.conj().T
        b = _unit(rng, d, flat)
        e = b - b.conj().T
        e = e * (ratio * tol.rel_eq * _norms(h) / (2.0 * _norms(e)))
        mats.append(scale * (h + e))
    return np.stack(mats)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.lists(st.tuples(RATIOS, st.booleans()), min_size=1, max_size=6),
    SCALES,
    TOLS,
)
def test_herm_extremes_matches_svd_rule(seed, d, deviations, scale, tol):
    stack = _herm_stack(seed, d, deviations, scale, tol)
    eigenvalues = np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2.0)
    for mat, skew, spectrum in zip(stack, _svd_skew(stack, tol), eigenvalues):
        if skew:
            with pytest.raises(NotHermitian):
                herm_eig_extremes(mat, tol)
        else:
            assert herm_eig_extremes(mat, tol) == (spectrum[0], spectrum[-1])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 8),
    st.lists(st.tuples(st.one_of(RATIOS, SCALES), st.booleans()), min_size=1, max_size=6),
    st.one_of(st.just(1.0), SCALES),
    TOLS,
)
def test_not_dual_matches_svd_rule(seed, d, deviations, scale, tol):
    """scale * (I + D) with ||D|| = ratio * rel_eq, ratios up to 1e150 / rel_eq, one matrix per call."""
    rng = np.random.default_rng(seed)
    for ratio, flat in deviations:
        recon = scale * (np.eye(d) + ratio * tol.rel_eq * _unit(rng, d, flat))
        assert _not_dual(recon, tol) is _svd_not_dual(recon, tol)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tol(rel_eq=1e-4)])
def test_near_and_far_reconstructions_get_the_rule_verdicts(seed, tol):
    """Matrices near and far from the threshold, on both sides of it."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    ratios = [0.0, 1e-3, 0.4, 0.6, 0.99, 1.01, 2.0, 1e3]  # ||D|| as a multiple of rel_eq
    rng.shuffle(ratios)
    for k, ratio in enumerate(ratios):
        recon = np.eye(d) + ratio * tol.rel_eq * _unit(rng, d, flat=bool(k % 2))
        assert _not_dual(recon, tol) is _svd_not_dual(recon, tol)


def test_tiny_scale_skew_matrix_is_still_rejected():
    h = 1e-165 * np.array([[1e-5, 1.0], [0.0, 1e-5]])
    skew = h - h.T
    # A sum-of-squares (Frobenius) bound underflows to zero here and would clear h.
    assert np.sqrt(np.sum(np.abs(skew) ** 2)) == 0.0
    with pytest.raises(NotHermitian):
        herm_eig_extremes(h)


def test_second_canonical_dual_is_bit_identical():
    f = random_frame(4, 9, (311, 0))
    first = canonical_dual(f)
    second = canonical_dual(f)
    fresh = canonical_dual(new_frame(f.synth))  # a new frame's memo is empty
    assert second is not first and second.parent is f
    for dual in (second, fresh):
        for got, want in (
            (dual.frame.synth, first.frame.synth),
            (dual.frame.cached_S, first.frame.cached_S),
            (dual.v_part, first.v_part),
        ):
            assert got.tobytes() == want.tobytes()
        assert dual.frame.bounds == first.frame.bounds


def test_each_tol_is_validated_separately(monkeypatch):
    tols = []

    def recording(synth, tol):
        tols.append(tol)
        return validate(synth, tol)

    f = random_frame(4, 9, (311, 1))
    # canonical_dual validates its one dual through frames._new_frame.
    validate = frames._new_frame
    monkeypatch.setattr(frames, "_new_frame", recording)
    loose = Tol(rel_eq=1e-6)
    for tol in (DEFAULT_TOL, DEFAULT_TOL, loose, loose, Tol()):
        canonical_dual(f, tol)
    assert tols == [DEFAULT_TOL, loose]

    # S = diag(1, 1e-9): the frame and its canonical dual pass the default
    # inv_cond, and the dual fails a tighter one every time it is asked for.
    ill = new_frame(np.diag([1.0, 10**-4.5]))
    canonical_dual(ill)
    tight = Tol(inv_cond=1e-8)
    for _ in range(2):
        with pytest.raises(NotAFrame):
            canonical_dual(ill, tight)


def test_memo_creates_no_reference_cycle():
    gc.disable()
    try:
        f = random_frame(4, 9, (311, 2))
        canonical_dual(f)
        ref = weakref.ref(f)
        del f
        assert ref() is None
    finally:
        gc.enable()
