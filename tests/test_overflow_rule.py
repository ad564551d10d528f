"""One overflow rule for every matrix the package derives, checked on hostile scales.

Frames, duals, weighted frames and multiplier matrices are formed from finite
inputs under a quiet numpy error state and judged by the typed check that
follows. So at any scale 2^k, from subnormal frame operators to overflowing
products, and for inputs with NaN or inf entries, each of new_frame,
canonical_dual, random_dual, sample_duals, scale_by_symbol and build returns
or raises a FrameMultError, and no numpy warning escapes.
"""

import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framemult import (
    FrameMultError,
    build,
    canonical_dual,
    new_frame,
    new_symbol,
    random_dual,
    sample_duals,
    scale_by_symbol,
)

# Powers of two that put S = T T* below the smallest normal double and the
# products above the largest one; the ends turn every entry into 0 or inf.
# Near 2^-512 S is subnormal and S^{-1}, the canonical dual's frame operator,
# sits at the top of the double range.
EXPONENTS = st.one_of(st.integers(-1100, 1100), st.integers(-520, -505), st.integers(505, 520))
POISON = st.one_of(
    st.none(),
    st.sampled_from([np.nan, np.inf, -np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)]),
)


def _scaled_draw(rng, shape, exponent, poison):
    """2^exponent times a complex Gaussian array, with one entry replaced by poison."""
    values = np.empty(shape, dtype=np.complex128)
    with np.errstate(over="ignore"):  # the test's own scaling may overflow to inf
        values.real = np.ldexp(rng.standard_normal(shape), exponent)
        values.imag = np.ldexp(rng.standard_normal(shape), exponent)
    if poison is not None:
        values.flat[int(rng.integers(values.size))] = poison
    return values


def _typed(call):
    """call() or None when it raises a FrameMultError; any other exception fails the test."""
    try:
        return call()
    except FrameMultError:
        return None


@settings(max_examples=300, deadline=None)
# T_dual U of a canonical dual whose S^{-1}T is not finite: its product turns invalid.
@example(1, 4, 0, -511, 0, 0, 0, None, None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.integers(0, 4),
    EXPONENTS,
    EXPONENTS,
    EXPONENTS,
    EXPONENTS,
    POISON,
    POISON,
)
def test_every_derived_matrix_overflows_as_a_typed_error(
    seed, d, extra, k_phi, k_psi, k_symbol, k_w, poison_frame, poison_symbol
):
    rng = np.random.default_rng(seed)
    n = d + extra
    columns = _scaled_draw(rng, (d, n), k_phi, poison_frame)
    other = _scaled_draw(rng, (d, n), k_psi, None)
    weights = _scaled_draw(rng, (n,), k_symbol, poison_symbol)
    w = _scaled_draw(rng, (d, n), k_w, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, psi = _typed(lambda: new_frame(columns)), _typed(lambda: new_frame(other))
        m = _typed(lambda: new_symbol(weights))
        if phi is not None:
            _typed(lambda: canonical_dual(phi))
            _typed(lambda: random_dual(phi, w))
            _typed(lambda: sample_duals(phi, 3, np.random.default_rng(seed)))
        if phi is not None and m is not None:
            _typed(lambda: scale_by_symbol(phi, m))
        if phi is not None and psi is not None and m is not None:
            _typed(lambda: build(m, phi, psi))
