"""One overflow rule for every matrix the package derives, checked on hostile scales.

Frames, duals, weighted frames, induced frames, perturbed frames, reciprocal
and perturbed symbols, multiplier matrices, the Gamma and Theta corrections
and thm1's products are formed from finite inputs under a quiet numpy error
state and judged by the typed check that follows; a derived frame is judged
by its spectrum, whose extremes are NaN when it is not finite. So at any
scale 2^k, from subnormal frame operators to overflowing products, and for
inputs with NaN or inf entries, each of new_frame, canonical_dual,
random_dual, sample_duals, scale_by_symbol, build, dagger_frames,
random_frame_perturbation, reciprocal, gamma_of, theta_of, thm1_report,
canonical_inverse_candidate, equivalence_map, equivalence_criterion and the
four companions returns or raises a FrameMultError, and no numpy warning
escapes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framemult import (
    FrameMultError,
    InvalidArgument,
    NumericalOverflow,
    build,
    canonical_dual,
    canonical_inverse_candidate,
    companion_per1,
    companion_per1_dual_side,
    companion_per2,
    companion_per3,
    dagger_frames,
    equivalence_criterion,
    equivalence_map,
    gamma_of,
    harmonic_tight,
    new_frame,
    new_symbol,
    perturb_symbol,
    random_dual,
    random_frame_perturbation,
    reciprocal,
    sample_duals,
    scale_by_symbol,
    theta_of,
    thm1_report,
)
from framemult.linalg import _eig_extremes, _finite

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
# S_Phi is subnormal, so the equivalence map V0 = T_Psi (S_Phi^{-1} T_Phi)* overflows.
@example(0, 2, 2, -520, 511, 0, 0, None, None)
# sqrt(B_Phi) ||M^-1|| underflows to 0, so per2's cap divides by zero.
@example(0, 1, 0, -50, 53, 1024, 0, None, None)
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
    with np.errstate(over="ignore", invalid="ignore"):  # the test's own arithmetic; inf input is an InvalidArgument
        mu = float(np.ldexp(1.0, k_w))
        moved_columns, moved_other, moved_weights = columns + w, other + w, weights + w[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, psi = _typed(lambda: new_frame(columns)), _typed(lambda: new_frame(other))
        m = _typed(lambda: new_symbol(weights))
        if phi is not None:
            _typed(lambda: canonical_dual(phi))
            _typed(lambda: random_dual(phi, w))
            _typed(lambda: sample_duals(phi, 3, np.random.default_rng(seed)))
            _typed(lambda: random_frame_perturbation(phi, mu, seed))
        if m is not None:
            _typed(lambda: reciprocal(m))
        if phi is not None and m is not None:
            _typed(lambda: scale_by_symbol(phi, m))
        if phi is not None and psi is not None:
            _typed(lambda: equivalence_map(phi, psi))
        if phi is not None and psi is not None and m is not None:
            mult = _typed(lambda: build(m, phi, psi))
            if mult is not None:
                derived = (dagger_frames, gamma_of, theta_of, thm1_report, canonical_inverse_candidate)
                for derive in (*derived, equivalence_criterion):
                    _typed(lambda: derive(mult))
            phi_prime, psi_prime = _typed(lambda: new_frame(moved_columns)), _typed(lambda: new_frame(moved_other))
            m_prime = _typed(lambda: new_symbol(moved_weights))
            if phi_prime is not None:
                _typed(lambda: companion_per1(phi, psi, m, phi_prime))
                if mult is not None:
                    _typed(lambda: companion_per2(phi, psi, m, phi_prime, mult))
            if psi_prime is not None:
                _typed(lambda: companion_per1_dual_side(phi, psi, m, psi_prime))
            if m_prime is not None and mult is not None:
                _typed(lambda: companion_per3(phi, psi, m, m_prime, mult))


def _overflows_quietly(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow):
            call()


@pytest.mark.parametrize("induced", [dagger_frames, thm1_report])
def test_induced_frame_that_overflows_is_a_numerical_overflow(induced):
    # Every input is finite, and so is M; conj(m_n) psi_n = 2^1117 h_n, the
    # weighted vectors of the second induced frame, is not.
    h = harmonic_tight(2, 4).synth
    phi, psi = new_frame(2.0**-497 * h), new_frame(2.0**109 * h)
    mult = build(new_symbol(np.full(4, 2.0**1008)), phi, psi)
    _overflows_quietly(lambda: induced(mult))


@pytest.mark.parametrize(
    ("k_phi", "k_psi", "k_symbol", "derived"),
    [
        # Phi = 2^100 h, Psi = 2^-100 h, m = 2^-1000: build accepts M (sigma = 1.87e-301),
        # while Gamma and T_{Psi~} diag(1/m), about 2^1100, overflow.
        (100, -100, -1000, gamma_of),
        (100, -100, -1000, thm1_report),
        (100, -100, -1000, canonical_inverse_candidate),
        # Phi = 2^-500 h, Psi = 2^50 h, m = 2^-550: Theta, the Gamma of M*, overflows.
        (-500, 50, -550, theta_of),
    ],
    ids=["gamma_of", "thm1_report", "canonical_inverse_candidate", "theta_of"],
)
def test_correction_or_candidate_that_overflows_is_a_numerical_overflow(k_phi, k_psi, k_symbol, derived):
    h = harmonic_tight(2, 4).synth
    phi, psi = new_frame(2.0**k_phi * h), new_frame(2.0**k_psi * h)
    mult = build(new_symbol(np.full(4, 2.0**k_symbol)), phi, psi)
    assert mult.inv_diag.invertible
    _overflows_quietly(lambda: derived(mult))


def _harmonic(k: int):
    return new_frame(2.0**k * harmonic_tight(2, 4).synth)


def test_equivalence_map_that_overflows_is_a_numerical_overflow():
    # S_Phi = 2^-1039 is subnormal, so S_Phi^{-1} T_Phi and V0 = T_Psi (S_Phi^{-1} T_Phi)* are not finite.
    phi, psi = _harmonic(-520), _harmonic(511)
    _overflows_quietly(lambda: equivalence_map(phi, psi))
    mult = build(new_symbol(np.ones(4)), phi, psi)
    assert mult.inv_diag.invertible
    _overflows_quietly(lambda: equivalence_criterion(mult))


def test_companion_multiplier_that_overflows_is_a_numerical_overflow():
    # The moved right frame scales to 2^500 h, a frame; the left one to 2^1111 h, which overflows.
    phi, psi = _harmonic(511), _harmonic(-100)
    _overflows_quietly(lambda: companion_per1_dual_side(phi, psi, new_symbol(np.full(4, 2.0**600)), psi))


@pytest.mark.parametrize(
    ("k_phi", "k_psi", "k_symbol"),
    [(-300, -300, 0), (-300, 300, 300)],
    ids=["overflows", "underflows"],
)
def test_per2_floor_scale_outside_the_double_range_is_a_numerical_overflow(k_phi, k_psi, k_symbol):
    # B_phi ||M^-1||^2 is 2^1199 or 2^-1201: the floor 1 / (B_phi ||M^-1||^2) cannot be formed.
    phi, psi, m = _harmonic(k_phi), _harmonic(k_psi), new_symbol(np.full(4, 2.0**k_symbol))
    mult = build(m, phi, psi)
    assert mult.inv_diag.invertible
    _overflows_quietly(lambda: companion_per2(phi, psi, m, phi, mult))


@pytest.mark.parametrize(
    "weights",
    [
        [2.0**-1052, 1.0],
        # 1/m_0 = 1.5e308 - 1.5e308i is finite, its modulus is not.
        [complex(1.0 / 1.5e308 / 2.0, 1.0 / 1.5e308 / 2.0), 1.0],
    ],
)
def test_reciprocal_that_overflows_is_a_numerical_overflow(weights):
    _overflows_quietly(lambda: reciprocal(new_symbol(weights)))


def test_finite_symbol_entry_whose_modulus_overflows_is_an_invalid_argument():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="moduli must be finite"):
            new_symbol([1.5e308 - 1.5e308j])


def test_perturbed_symbol_that_overflows_is_a_numerical_overflow():
    # m_0 + e_0 overflows: an entry of m + e is not finite.
    _overflows_quietly(lambda: perturb_symbol(new_symbol([1.2e308 - 1.2e308j, 1.0]), 1e308, 0))


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_float_that_is_not_finite_is_a_numerical_overflow(value):
    # The equivalence suite's certified bound ||R0|| + ||K|| is a float.
    with pytest.raises(NumericalOverflow, match="bound of finite inputs overflows"):
        _finite(value, "bound")
    assert _finite(1.7976931348623157e308, "bound") == 1.7976931348623157e308


@pytest.mark.parametrize("mat", [[[np.nan, 1.0], [1.0, 2.0]], [[np.nan, 0.0], [0.0, 5e305]]])
def test_non_finite_matrix_has_nan_extremes(mat):
    # eigvalsh converges on both and gives finite values, which are not the extremes.
    assert np.isnan(_eig_extremes(np.array(mat, dtype=np.complex128))).all()
    extremes = _eig_extremes(np.diag([1.0, 4.0]).astype(np.complex128))
    assert extremes == (1.0, 4.0) and all(type(x) is float for x in extremes)
