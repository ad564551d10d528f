"""Exact witnesses: transcribed claims decided in Gaussian rationals, not by a measured rate.

At d = 1 every operator is a scalar or a row, so for frames with
Gaussian-integer entries the correction Gamma and its annihilation products
are Gaussian rationals that Python's fractions computes exactly.

For phi = (1, 2+i), psi = (i, 3) and m = (1, 2):
    M = sum_n m_n phi_n conj(psi_n) = 12 + 5i,  S_Psi = |i|^2 + |3|^2 = 10,
    Gamma_n = conj(phi_n) / conj(M) - conj(psi_n) / (conj(m_n) S_Psi).
The bare product T_Psi Gamma = -219/3380 + (6/169)i is not zero, so the bare
annihilation claim of acceptance 7 is false; the symbol-weighted product
T_Psi diag(conj(m)) Gamma is exactly zero.

Theta is the Gamma of M* = mult(conj(m), Psi, Phi). With S_Phi = 6,
    Theta_n = conj(psi_n) / M - conj(phi_n) / (m_n S_Phi).
The bare product T_Phi Theta = -199/2028 - (6/169)i is not zero, so the bare
annihilation claim of acceptance 8c is false too; T_Phi diag(m) Theta is
exactly zero.
"""

import math
from fractions import Fraction

from framemult import DEFAULT_TOL, approx_equal, build, gamma_of, new_frame, new_symbol, theta_of

PHI = ((1, 0), (2, 1))  # Gaussian integers as (real, imaginary)
PSI = ((0, 1), (3, 0))
SYMBOL = ((1, 0), (2, 0))


def _q(z):
    return Fraction(z[0]), Fraction(z[1])


def _conj(z):
    return z[0], -z[1]


def _sub(z, w):
    return z[0] - w[0], z[1] - w[1]


def _mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _div(z, w):
    scale = w[0] ** 2 + w[1] ** 2
    num = _mul(z, _conj(w))
    return num[0] / scale, num[1] / scale


def _sum(terms):
    terms = list(terms)
    return sum(t[0] for t in terms), sum(t[1] for t in terms)


def _exact_gamma(left=PHI, right=PSI, symbol=SYMBOL):
    """(right frame, symbol, Gamma_n for n = 1, 2) of mult(symbol, left, right), in Gaussian rationals."""
    phi, psi, m = ([_q(z) for z in seq] for seq in (left, right, symbol))
    matrix = _sum(_mul(_mul(m_n, p), _conj(q)) for m_n, p, q in zip(m, phi, psi))
    frame_op = _sum(_mul(q, _conj(q)) for q in psi)
    return psi, m, [
        _sub(_div(_conj(p), _conj(matrix)), _div(_conj(q), _mul(_conj(m_n), frame_op)))
        for m_n, p, q in zip(m, phi, psi)
    ]


def _complex(seq):
    return [complex(*z) for z in seq]


def test_bare_annihilation_is_false_and_masked_annihilation_exact():
    psi, m, gamma = _exact_gamma()
    bare = _sum(_mul(q, g) for q, g in zip(psi, gamma))
    masked = _sum(_mul(_mul(q, _conj(m_n)), g) for q, m_n, g in zip(psi, m, gamma))
    assert bare == (Fraction(-219, 3380), Fraction(6, 169))
    assert masked == (0, 0)


def _exact_theta():
    """(Phi, m, Theta_n for n = 1, 2): the Gamma of M* = mult(conj(m), Psi, Phi)."""
    phi, conj_m, theta = _exact_gamma(PSI, PHI, [_conj(z) for z in SYMBOL])
    return phi, [_conj(z) for z in conj_m], theta


def test_float_gamma_reads_the_exact_witness():
    psi, _, gamma = _exact_gamma()
    bare = _sum(_mul(q, g) for q, g in zip(psi, gamma))
    exact_norm = math.sqrt(bare[0] ** 2 + bare[1] ** 2)  # |-219/3380 + 6i/169|
    mult = build(
        new_symbol(_complex(SYMBOL)),
        new_frame([_complex(PHI)]),
        new_frame([_complex(PSI)]),
    )
    g = gamma_of(mult)
    assert approx_equal([[g.annihilation_residual]], [[exact_norm]])
    assert g.annihilation_residual > DEFAULT_TOL.rel_eq
    assert g.masked_annihilation_residual <= DEFAULT_TOL.rel_eq


def test_theta_bare_annihilation_is_false_and_masked_annihilation_exact():
    phi, m, theta = _exact_theta()
    bare = _sum(_mul(p, t) for p, t in zip(phi, theta))
    masked = _sum(_mul(_mul(p, m_n), t) for p, m_n, t in zip(phi, m, theta))
    assert bare == (Fraction(-199, 2028), Fraction(-6, 169))
    assert masked == (0, 0)


def test_float_theta_reads_the_exact_witness():
    phi, _, theta = _exact_theta()
    bare = _sum(_mul(p, t) for p, t in zip(phi, theta))
    exact_norm = math.sqrt(bare[0] ** 2 + bare[1] ** 2)  # |-199/2028 - 6i/169|
    mult = build(
        new_symbol(_complex(SYMBOL)),
        new_frame([_complex(PHI)]),
        new_frame([_complex(PSI)]),
    )
    t = theta_of(mult)
    assert approx_equal([[t.annihilation_residual]], [[exact_norm]])
    assert t.annihilation_residual > DEFAULT_TOL.rel_eq
    assert t.masked_annihilation_residual <= DEFAULT_TOL.rel_eq
