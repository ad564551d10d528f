"""Arguments out of range raise a ValueError that names the argument.

Sizes go through the generators' one size rule before any draw, a
perturbation size must be finite and positive, a tolerance must be a real
number inside (0, 1), a matrix function that reads extremes refuses an
empty matrix, and a dual sample size is a non-negative integer.
"""

import numpy as np
import pytest

from framemult import (
    Tol,
    finite_gabor,
    harmonic_tight,
    new_symbol,
    onb,
    perturb_symbol,
    random_frame,
    random_frame_perturbation,
    riesz_basis,
    sample_duals,
)
from framemult.linalg import herm_eig_extremes, inv, sv_extremes

SIZE_CASES = {
    "random_frame(0, 7, 1)": (lambda: random_frame(0, 7, 1), "dimension must be positive, got 0"),
    "riesz_basis(0, 1)": (lambda: riesz_basis(0, 1), "dimension must be positive, got 0"),
    "random_frame(3, 2, 1)": (lambda: random_frame(3, 2, 1), "need at least d = 3 vectors, got 2"),
    "riesz_basis(-2, 1)": (lambda: riesz_basis(-2, 1), "dimension must be positive, got -2"),
    "onb(0)": (lambda: onb(0), "dimension must be positive, got 0"),
    "harmonic_tight(5, 3)": (lambda: harmonic_tight(5, 3), "need at least d = 5 vectors, got 3"),
    "finite_gabor(0, 1, 1)": (lambda: finite_gabor(0, 1, 1), "dimension must be positive, got 0"),
}


@pytest.mark.parametrize("case", sorted(SIZE_CASES))
def test_generators_share_one_size_rule(case):
    call, message = SIZE_CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert type(info.value) is ValueError  # not GenerationFailed after a run of draws


def test_a_nan_condition_cap_is_refused_before_any_draw():
    with pytest.raises(ValueError, match="condition_cap must be at least 1, got nan"):
        random_frame(3, 7, 1, condition_cap=float("nan"))


@pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0, -1.0])
def test_perturbation_sizes_must_be_finite_and_positive(size):
    f = random_frame(3, 7, 13)
    with pytest.raises(ValueError, match="mu must be positive"):
        random_frame_perturbation(f, size, 0)
    with pytest.raises(ValueError, match="eps must be positive"):
        perturb_symbol(new_symbol([1.0, 2.0]), size, 0)


@pytest.mark.parametrize("bad", ["0.1", None, 1j, np.array([0.1])])
def test_tolerances_must_be_real_numbers(bad):
    for name in ("rel_eq", "inv_cond", "pinv_cutoff"):
        with pytest.raises(ValueError, match=f"{name} must lie strictly inside"):
            Tol(**{name: bad})


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
def test_extremes_refuse_an_empty_matrix(shape):
    empty = np.zeros(shape)
    for function in (sv_extremes, herm_eig_extremes, inv):
        with pytest.raises(ValueError):
            function(empty)


@pytest.mark.parametrize("count", [-5, -1, True, False, 2.0, 0.5, "3", None])
def test_dual_sample_size_must_be_a_non_negative_integer(count):
    f = random_frame(3, 7, 13)
    with pytest.raises(ValueError, match=f"count must be a non-negative integer, got {count!r}"):
        sample_duals(f, count=count)


@pytest.mark.parametrize("count", [0, 2, np.int64(2)])
def test_dual_sample_size_zero_and_numpy_integers_are_valid(count):
    f = random_frame(3, 7, 13)
    duals = sample_duals(f, count=count)
    assert len(duals) == 1 + count
    assert duals[0].w is None
