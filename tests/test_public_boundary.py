"""The public boundary: malformed input to the array and symbol entry points raises one typed error.

Empty arrays, the wrong ndim, bool and non-integer sizes, non-finite entries
and mismatched shapes, fed to op_norm, new_frame, new_symbol, random_symbol,
reciprocal, perturb_symbol and scale_by_symbol, each raise the FrameMultError
class a rule written here from the documented contract predicts, or return.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framemult import (
    DimensionMismatch,
    FrameMultError,
    InvalidArgument,
    NotAFrame,
    NumericalOverflow,
    ZeroEntry,
    new_frame,
    new_symbol,
    perturb_symbol,
    random_symbol,
    reciprocal,
    scale_by_symbol,
)
from framemult.linalg import op_norm

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
