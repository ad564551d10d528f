"""The public boundary: malformed input to the entry points raises one typed error.

Empty arrays, the wrong ndim, bool and non-integer sizes, non-finite entries
and mismatched shapes, None, strings, out-of-range scalars, sizes and seeds,
fed to the matrix functions of linalg (op_norm, inv, pinv, sv_extremes,
herm_eig_extremes, rel_residual, approx_equal), to new_frame, analysis,
synthesis and random_dual, to the symbol functions, to the generators and to
the samplers (random_frame_perturbation, sample_duals), and a multiplier at
any scale fed to invert, each raise the FrameMultError class a rule written
here from the documented contract predicts, or return.
"""

import functools
import math
import numbers

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framemult import (
    DimensionMismatch,
    FrameMultError,
    GenerationFailed,
    InvalidArgument,
    NotAFrame,
    NotHermitian,
    NumericalOverflow,
    Singular,
    ZeroEntry,
    analysis,
    build,
    finite_gabor,
    harmonic_tight,
    invert,
    new_frame,
    new_symbol,
    onb,
    perturb_symbol,
    random_dual,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    reciprocal,
    riesz_basis,
    sample_duals,
    scale_by_symbol,
    synthesis,
)
from framemult.linalg import approx_equal, herm_eig_extremes, inv, op_norm, pinv, rel_residual, sv_extremes

SHAPES = st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple)
POISON = st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 1.0)]))
NUMBERS = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, True, False]),
)
TINY = [0.0, 1e-310, -1e-312, 2.0**-1074]  # a zero entry, and entries whose reciprocal overflows


def _raised(call):
    """The FrameMultError class call() raises, or None when it returns; any other exception fails the test."""
    try:
        call()
    except FrameMultError as exc:
        return type(exc)
    return None


def _array(shape, seed, poison):
    """A complex Gaussian array of shape with, when there is an entry, poison in one of them."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if poison is not None and values.size:
        values.flat[int(rng.integers(values.size))] = poison
    return values


def _poisoned(values) -> bool:
    return values.size > 0 and not np.isfinite(values).all()


def _rank_deficient(synth) -> bool:
    """The frame rule of new_frame: lambda_min(S) <= inv_cond * lambda_max(S), by np.linalg."""
    s = synth @ synth.conj().T
    eigenvalues = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
    return eigenvalues[-1] <= 0.0 or eigenvalues[0] <= 1e-10 * eigenvalues[-1]


@settings(max_examples=150, deadline=None)
@given(SHAPES, st.integers(0, 2**32 - 1), POISON)
def test_arrays_of_any_shape(shape, seed, poison):
    a = _array(shape, seed, poison)
    bad = a.ndim != 2 or _poisoned(a)
    assert _raised(lambda: op_norm(a)) is (InvalidArgument if bad else None)
    if bad:
        frame = InvalidArgument
    elif 0 in a.shape or a.shape[1] < a.shape[0] or _rank_deficient(a):
        frame = NotAFrame
    else:
        frame = None
    assert _raised(lambda: new_frame(a)) is frame
    symbol_ok = a.ndim == 1 and a.size > 0 and not _poisoned(a)
    assert _raised(lambda: new_symbol(a)) is (None if symbol_ok else InvalidArgument)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-2, 6), st.booleans(), st.sampled_from([2.0, 0.5, None, "3"])), NUMBERS, NUMBERS)
def test_random_symbol_sizes_and_ranges(n, lo, hi):
    ranges_ok = 0.0 < lo <= hi < math.inf  # NaN fails it; a bool counts as 0 or 1
    size_ok = isinstance(n, int) and not isinstance(n, bool) and n >= 1
    assert _raised(lambda: random_symbol(n, lo, hi, 0)) is (None if ranges_ok and size_ok else InvalidArgument)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(0.25, 4.0), st.sampled_from(TINY)), min_size=1, max_size=6), NUMBERS)
def test_symbol_operations(entries, eps):
    m = new_symbol(entries)
    if 0.0 in entries:
        expected = ZeroEntry
    elif min(abs(e) for e in entries) < 1.0 / np.finfo(float).max:
        expected = NumericalOverflow  # 1/m_n overflows
    else:
        expected = None
    assert _raised(lambda: reciprocal(m)) is expected
    assert _raised(lambda: perturb_symbol(m, eps, 0)) is (None if 0.0 < eps < math.inf else InvalidArgument)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 6), st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_scale_by_symbol_shapes(d, extra, length, seed, zeros):
    f = new_frame(_array((d, d + extra), seed, None) + 3.0 * np.eye(d, d + extra))
    weights = np.ones(length, dtype=np.complex128)
    weights[: min(zeros, length)] = 0.0
    m = new_symbol(weights)
    if length != f.count:
        expected = DimensionMismatch
    elif _rank_deficient(f.synth * weights):
        expected = NotAFrame
    else:
        expected = None
    assert _raised(lambda: scale_by_symbol(f, m)) is expected


# ------------------------------------------------ generators, samplers, seeds

INT_MAX_ENTRIES = np.iinfo(np.intp).max // 16  # complex128 entries numpy can address in one array
SIZES = st.one_of(st.integers(-1, 5), st.sampled_from([None, "3", True, 2.0, np.array([]), 2**70, np.int64(2)]))
SEEDS = st.one_of(
    st.integers(-2, 2**64),
    st.sampled_from([None, True, 1.5, "3", np.array([]), np.array([3]), np.array([1.0]), np.array(5), [1, 2], [-1]]),
)
SCALARS = st.one_of(NUMBERS, st.sampled_from([None, "0.5", np.array([]), np.array([0.5]), 1j]))
CAPS = st.sampled_from([1.0, 100.0, math.inf, math.nan, 0.5, True, "x", None, np.array([])])


def _int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, numbers.Real)  # a bool counts as 0 or 1


def _positive(value) -> bool:
    return _real(value) and 0.0 < value < math.inf


def _seed_ok(seed) -> bool:
    """numpy's seed contract: None, a non-negative integer, or a sequence of them (empty too)."""
    if seed is None or isinstance(seed, numbers.Integral):
        return seed is None or seed >= 0
    if isinstance(seed, np.ndarray):
        return seed.ndim == 1 and (seed.size == 0 or (seed.dtype.kind in "iu" and bool((seed >= 0).all())))
    return isinstance(seed, list) and all(isinstance(s, numbers.Integral) and s >= 0 for s in seed)


def _dims_ok(d, *count) -> bool:
    """The size rule: integer sizes, d >= 1, n >= d, and a d x n (or d x d) matrix numpy can address."""
    n = count[0] if count else d
    return _int(d) and _int(n) and 1 <= d <= n and int(d) * int(n) <= INT_MAX_ENTRIES


@settings(max_examples=200, deadline=None)
@given(SIZES, SIZES, SIZES, SEEDS, CAPS)
def test_generator_arguments(d, n, step, seed, cap):
    assert _raised(lambda: onb(d)) is (None if _dims_ok(d) else InvalidArgument)
    assert _raised(lambda: harmonic_tight(d, n)) is (None if _dims_ok(d, n) else InvalidArgument)
    divides = _dims_ok(d) and all(_int(s) and 1 <= s <= d and d % s == 0 for s in (step, n))
    gabor = _raised(lambda: finite_gabor(d, step, n))
    if not divides:
        assert gabor is InvalidArgument
    elif (d // step) * (d // n) < d:
        assert gabor is NotAFrame  # an undersampled lattice
    else:
        assert gabor in (None, NotAFrame)
    frame_ok = _dims_ok(d, n) and _real(cap) and cap >= 1.0 and _seed_ok(seed)
    assert _raised(lambda: random_frame(d, n, seed, cap)) in ((None, GenerationFailed) if frame_ok else (InvalidArgument,))
    basis_ok = _dims_ok(d) and _seed_ok(seed)
    assert _raised(lambda: riesz_basis(d, seed)) in ((None, GenerationFailed) if basis_ok else (InvalidArgument,))


@settings(max_examples=150, deadline=None)
@given(SIZES, SCALARS, SCALARS, SEEDS)
def test_random_symbol_scalars_and_seeds(n, lo, hi, seed):
    ok = _int(n) and 1 <= n <= INT_MAX_ENTRIES and _real(lo) and _real(hi) and 0.0 < lo <= hi < math.inf and _seed_ok(seed)
    assert _raised(lambda: random_symbol(n, lo, hi, seed)) is (None if ok else InvalidArgument)


@functools.cache
def _frame():
    """A well-conditioned 2 x 3 frame, built once."""
    return new_frame(_array((2, 3), 5, None) + 3.0 * np.eye(2, 3))


@settings(max_examples=150, deadline=None)
@given(SCALARS, SEEDS)
def test_perturbation_sizes_and_seeds(size, seed):
    ok = _positive(size) and _seed_ok(seed)
    assert _raised(lambda: perturb_symbol(new_symbol([1.0, 2.0]), size, seed)) is (None if ok else InvalidArgument)
    # A move of 1e300 overflows the frame operator; a large one may stop spanning.
    expected = (None, NotAFrame, NumericalOverflow) if ok else (InvalidArgument,)
    assert _raised(lambda: random_frame_perturbation(_frame(), size, seed)) in expected


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.integers(-1, 3), st.sampled_from([True, 2.0, None, "3", np.int64(2)])),
    st.sampled_from(["generator", None, "x", 3, np.random.RandomState(0)]),
)
def test_dual_sample_arguments(count, rng):
    rng = np.random.default_rng(1) if rng == "generator" else rng
    ok = _int(count) and count >= 0 and (rng is None or isinstance(rng, np.random.Generator))
    assert _raised(lambda: sample_duals(_frame(), count, rng)) is (None if ok else InvalidArgument)


# ------------------------------------------------ matrices and vectors

ODD = st.sampled_from([None, "3", "x", True, [[1.0, "x"]]])  # none of them a finite 2-D array


def _read(value):
    """value as numpy reads it as complex128, or None when it cannot."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        return None


def _bad_matrix(value) -> bool:
    """as_matrix's rule: readable as complex, 2-D, finite."""
    mat = _read(value)
    return mat is None or mat.ndim != 2 or _poisoned(mat)


@settings(max_examples=200, deadline=None)
@given(st.one_of(SHAPES.map(lambda s: s[:2]), st.just((3, 3))), st.integers(0, 2**32 - 1), POISON, st.booleans(), st.one_of(st.none(), ODD))
def test_matrix_functions(shape, seed, poison, hermitian, odd):
    a = _array(shape, seed, poison) if odd is None else odd
    if hermitian and odd is None and a.ndim == 2 and a.shape[0] == a.shape[1]:
        a = a + a.conj().T
    if _bad_matrix(a):
        for function in (inv, pinv, sv_extremes, herm_eig_extremes):
            assert _raised(lambda: function(a)) is InvalidArgument
        return
    empty, square = a.size == 0, a.shape[0] == a.shape[1]
    assert _raised(lambda: pinv(a)) is None
    assert _raised(lambda: sv_extremes(a)) is (InvalidArgument if empty else None)
    if empty or not square:
        assert _raised(lambda: inv(a)) is InvalidArgument
    else:
        s = np.linalg.svd(a, compute_uv=False)
        assert _raised(lambda: inv(a)) is (None if s[0] > 0.0 and s[-1] / s[0] >= 1e-10 else Singular)
    if empty:
        herm = InvalidArgument
    elif not square or np.linalg.norm(a - a.conj().T, 2) > 1e-8 * np.linalg.norm(a, 2):
        herm = NotHermitian
    else:
        herm = None
    assert _raised(lambda: herm_eig_extremes(a)) is herm


def _overflows(x, y) -> bool:
    """Whether X - Y, ||X - Y||, ||X|| or ||Y|| of finite X and Y is not finite."""
    with np.errstate(all="ignore"):
        diff = x - y
        if not np.isfinite(diff).all():
            return True
        return any(m.size and not np.isfinite(np.linalg.svd(m, compute_uv=False)[0]) for m in (diff, x, y))


@settings(max_examples=150, deadline=None)
@given(SHAPES, SHAPES, st.integers(0, 2**32 - 1), POISON, st.one_of(st.none(), ODD), st.sampled_from([1.0, 1e308, -1e308]))
def test_residuals(shape_x, shape_y, seed, poison, odd, scale):
    x = _array(shape_x, seed, poison) if odd is None else odd
    with np.errstate(over="ignore"):  # an entry beyond the double range is poison, refused as input
        y = _array(shape_y, seed + 1, None) * scale
    if _bad_matrix(x) or _bad_matrix(y):
        expected = InvalidArgument
    elif x.shape != y.shape:
        expected = DimensionMismatch
    elif _overflows(x, y):
        expected = NumericalOverflow  # a norm read as inf would make the quotient 0
    else:
        expected = None
    assert _raised(lambda: rel_residual(x, y)) is expected
    assert _raised(lambda: approx_equal(x, y)) is expected


@settings(max_examples=150, deadline=None)
@given(SHAPES, st.integers(0, 2**32 - 1), POISON, st.one_of(st.none(), ODD, st.just(np.array([]))), st.booleans())
def test_vectors_and_free_matrices(shape, seed, poison, odd, lone):
    f = onb(1) if lone else _frame()
    value = _array(shape, seed, poison) if odd is None else odd
    read = _read(value)
    for function, length in ((analysis, f.dim), (synthesis, f.count)):
        if read is None:
            expected = InvalidArgument
        elif read.size != length:
            expected = DimensionMismatch
        else:
            expected = InvalidArgument if _poisoned(read.reshape(-1)) else None  # None reads as NaN
        assert _raised(lambda: function(f, value)) is expected
    if _bad_matrix(value):
        expected = InvalidArgument
    elif read.shape != (f.dim, f.count):
        expected = DimensionMismatch
    else:
        expected = None
    assert _raised(lambda: random_dual(f, value)) is expected


# A finite multiplier at scale 2^-1030 passes the singularity proxy, but its inverse overflows.
@example(3, 3, 4, -1030)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3), st.sampled_from([0, -500, -1030, -1060, -1073, 500]))
def test_invert_at_any_scale(seed, d, extra, k):
    n = d + extra
    phi, psi = random_frame(d, n, (seed, 0)), random_frame(d, n, (seed, 1))
    m = new_symbol(random_symbol(n, 0.5, 2.0, (seed, 2)).values * 2.0**k)
    mult = build(m, phi, psi)
    raised = _raised(lambda: invert(mult))
    if not mult.inv_diag.invertible:
        assert raised is Singular
    else:
        assert raised in (None, Singular, NumericalOverflow)  # never an InvalidArgument of valid input
