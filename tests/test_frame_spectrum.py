"""Frames are validated by their spectrum alone.

A frame operator S = T T* is Hermitian by construction, so new_frame and every
dual take its bounds from (S + S*)/2 without a Hermitian
test, and no frame depends on rel_eq. The test stays in herm_eig_extremes,
whose input comes from outside; the guard below keeps it there.
"""

import ast
import inspect
import pkgutil
from importlib import import_module

import numpy as np
import pytest

import framemult
from framemult import DEFAULT_TOL, NotHermitian, Tol, herm_eig_extremes, new_frame, random_frame
from framemult.suites import DEFAULT_DIMS, GENERATOR_NAMES, _make_frame

# With OpenBLAS's AVX-512 kernels, the frame operator of this 2 x 5 frame fails
# the Hermitian test at rel_eq = 1e-17 on rounding alone.
WITNESS = (2, 5, (0, 0, 0))
TIGHT = Tol(rel_eq=1e-17)


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


def test_a_frame_builds_at_a_rel_eq_below_rounding():
    tight = random_frame(*WITNESS, tol=TIGHT)
    default = random_frame(*WITNESS, tol=DEFAULT_TOL)
    assert tight.synth.tobytes() == default.synth.tobytes()
    assert _bits(*tight.bounds) == _bits(*default.bounds)
    assert all(type(x) is float for x in tight.bounds)


def test_the_public_check_still_rejects_that_frame_operator():
    f = random_frame(*WITNESS)
    # A skew-Hermitian E of 4 ulps of ||S|| = B: ||2E|| is above both 1e-17 ||S||
    # and the rounding ||S - S*|| that any GEMM kernel leaves in S.
    e = 4.0 * np.finfo(np.float64).eps * f.bounds[1] * np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NotHermitian):
        herm_eig_extremes(f.cached_S + e, TIGHT)
    assert _bits(*herm_eig_extremes(f.cached_S)) == _bits(*f.bounds)


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_frame_bounds_do_not_depend_on_rel_eq(generator):
    for index, (d, n) in enumerate(DEFAULT_DIMS):
        f = _make_frame(generator, d, n, (0, index, 0), DEFAULT_TOL)
        bounds = {_bits(*new_frame(f.synth, Tol(rel_eq=r)).bounds) for r in (1e-17, 1e-8, 1e-4)}
        assert bounds == {_bits(*f.bounds)}


# ------------------------------------------------------------- one home

HERMITIAN_TEST = {"herm_eig_extremes", "_herm_extremes"}


def _names(tree) -> set[str]:
    """Every identifier the tree names: a bare name, an attribute or an import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def test_only_linalg_names_the_hermitian_test():
    naming = {
        info.name
        for info in pkgutil.iter_modules(framemult.__path__)
        if info.name != "linalg"
        and _names(ast.parse(inspect.getsource(import_module(f"framemult.{info.name}"))))
        & HERMITIAN_TEST
    }
    assert naming == set()


@pytest.mark.parametrize(
    "source",
    [
        "from .linalg import herm_eig_extremes\n",
        "from .linalg import _herm_extremes as check\n",
        "lo, hi = linalg.herm_eig_extremes(s, tol)\n",
        "skew, lo, hi = _herm_extremes(gram, tol)\n",
    ],
)
def test_the_guard_flags_an_import_a_call_and_an_attribute(source):
    assert _names(ast.parse(source)) & HERMITIAN_TEST
