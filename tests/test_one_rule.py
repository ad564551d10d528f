"""One implementation per rule: the adjoint halves of the multiplier layer, the shape check,
the singularity proxy and the bounded frame-document reader."""

import json
import tracemalloc

import numpy as np
import pytest

from framemult import (
    DimensionMismatch,
    ParseError,
    Singular,
    Tol,
    build,
    companion_per1,
    dagger_frames,
    equivalence_map,
    finite_gabor,
    harmonic_tight,
    invert,
    load_frame,
    new_frame,
    new_symbol,
    onb,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    riesz_basis,
    scale_by_symbol,
    thm1_report,
)
from framemult.linalg import inv, op_norm
from framemult.perturbation import _companion_per2

FRAME_PAIRS = {
    "4x9": lambda: (random_frame(4, 9, (411, 0)), random_frame(4, 9, (411, 1))),
    "8x17": lambda: (random_frame(8, 17, (411, 2)), random_frame(8, 17, (411, 3))),
    "riesz3": lambda: (riesz_basis(3, (411, 4)), riesz_basis(3, (411, 5))),
    "harmonic": lambda: (harmonic_tight(4, 9), harmonic_tight(4, 9)),
    "gabor": lambda: (finite_gabor(3, 1, 1), finite_gabor(3, 1, 1)),
}


def _multiplier(name):
    phi, psi = FRAME_PAIRS[name]()
    for attempt in range(20):
        mult = build(random_symbol(phi.count, 0.5, 2.0, (411, attempt)), phi, psi)
        if mult.inv_diag.invertible:
            return mult
    raise AssertionError(f"no invertible multiplier on {name}")


def _same_frame(a, b):
    assert a.synth.tobytes() == b.synth.tobytes()
    assert a.cached_S.tobytes() == b.cached_S.tobytes()
    assert a.bounds == b.bounds


# ------------------------------------------------------------ adjoint halves


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_second_dagger_frame_is_the_written_out_formula(name):
    mult = _multiplier(name)
    minv, m = invert(mult), mult.symbol.values
    psi_dagger, phi_dagger = dagger_frames(mult)
    _same_frame(psi_dagger, new_frame(minv @ (mult.left.synth * m[np.newaxis, :])))
    _same_frame(phi_dagger, new_frame(minv.conj().T @ (mult.right.synth * np.conj(m)[np.newaxis, :])))


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_conditions_iii_iv_are_the_written_out_formulas(name):
    mult = _multiplier(name)
    minv, abs_m = invert(mult), np.abs(mult.symbol.values)
    phi, psi = mult.left, mult.right
    rep = thm1_report(mult)
    inv_norm_s_phi = 1.0 / phi.bounds[0]
    lhs_rhs = {
        "cond_iii": (inv_norm_s_phi, op_norm(minv.conj().T @ (psi.synth * abs_m[np.newaxis, :])) ** 2),
        "cond_iv": (inv_norm_s_phi, dagger_frames(mult)[1].bounds[1]),
    }
    for key, (lhs, rhs) in lhs_rhs.items():
        cond = getattr(rep, key)
        assert (cond.lhs, cond.rhs) == (lhs, rhs)
        assert cond.holds == (abs(lhs - rhs) <= 1e-8 * max(1.0, lhs, rhs))


# ---------------------------------------------------------------- shape rule


def _message(call):
    with pytest.raises(DimensionMismatch) as info:
        call()
    return str(info.value)


def test_one_mismatch_reads_the_same_in_every_checker():
    phi, psi3 = random_frame(3, 7, (411, 6)), random_frame(3, 7, (411, 7))
    psi4 = random_frame(4, 7, (411, 8))
    m = random_symbol(7, 0.5, 2.0, (411, 9))
    dims = {
        _message(lambda: build(m, phi, psi4)),
        _message(lambda: equivalence_map(phi, psi4)),
        _message(lambda: companion_per1(phi, psi4, m, phi)),
    }
    assert dims == {"frame dimensions differ: 3/4"}
    short = random_symbol(5, 0.5, 2.0, (411, 10))
    lengths = {
        _message(lambda: build(short, phi, psi3)),
        _message(lambda: scale_by_symbol(phi, short)),
        _message(lambda: companion_per1(phi, psi3, short, phi)),
    }
    assert lengths == {"lengths differ: symbols 5, frames 7"}
    psi9 = random_frame(3, 9, (411, 11))
    assert _message(lambda: build(m, phi, psi9)) == "lengths differ: symbols 7, frames 7/9"
    assert _message(lambda: companion_per1(phi, psi9, m, phi)) == "lengths differ: symbols 7, frames 7/9"
    assert _message(lambda: equivalence_map(phi, psi9)) == "lengths differ: frames 7/9"


# -------------------------------------------------------- singularity proxy


@pytest.mark.parametrize("scale", [1.0, 1e3])
@pytest.mark.parametrize("offset", [1e-6, -1e-6], ids=["above", "below"])
def test_inv_build_and_equivalence_map_share_the_proxy(offset, scale):
    tol = Tol()
    ratio = tol.inv_cond * (1.0 + offset)
    values = scale * np.array([1.0, ratio])
    try:
        inv(np.diag(values), tol)
        inv_ok = True
    except Singular:
        inv_ok = False
    mult = build(new_symbol(values), onb(2), onb(2), tol)
    target = new_frame(np.diag(values), Tol(inv_cond=1e-30))  # a frame under a looser Tol
    mapped = equivalence_map(onb(2), target, tol)
    assert inv_ok == mult.inv_diag.invertible == (mapped is not None) == (offset > 0)


def test_zero_matrix_fails_the_proxy_everywhere():
    with pytest.raises(Singular):
        inv(np.zeros((2, 2)))
    assert not build(new_symbol([0.0, 0.0]), onb(2), onb(2)).inv_diag.invertible


# ------------------------------------------------------------- per2's floor


def test_per2_floor_ratio_is_the_suite_formula():
    mult = _multiplier("4x9")
    phi, psi, m = mult.left, mult.right, mult.symbol
    inv_norm = 1.0 / mult.inv_diag.sigma_min
    mu = 0.5 / (np.sqrt(phi.bounds[1]) * inv_norm * m.sup_mod)
    phi_prime = random_frame_perturbation(phi, mu, (411, 12))
    _, _, floor_ratio = _companion_per2(phi, psi, m, phi_prime, mult, Tol())
    lo = scale_by_symbol(phi, m).bounds[0]
    assert floor_ratio == lo * phi.bounds[1] * inv_norm**2


# ------------------------------------------------------ bounded frame reader


def _document(tmp_path, count):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"dim": 1, "count": count, "entries": [[]]}))
    return path


def test_huge_declared_count_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="row 0"):
        load_frame(_document(tmp_path, 2**62))


def test_declared_count_does_not_set_the_memory_cost(tmp_path):
    path = _document(tmp_path, 10**7)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="row 0"):
            load_frame(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
