"""Every error the package raises is typed, and overflow is reported without numpy warnings.

A malformed argument is an InvalidArgument, which is a FrameMultError and a
ValueError both, so callers that catch either keep working. A finite input
whose frame operator or Hermitian extremes overflow is a NumericalOverflow
(or a NotHermitian when H - H* overflows) and leaks no RuntimeWarning.
"""

import ast
import inspect
import pkgutil
import warnings
from importlib import import_module

import numpy as np
import pytest

import framemult
from framemult import (
    FrameMultError,
    InvalidArgument,
    NotHermitian,
    NumericalOverflow,
    Tol,
    herm_eig_extremes,
    new_frame,
    onb,
)
from tests.test_herm_overflow import _tiny_tight_frame, _w_for


def _bare_value_errors(tree) -> list[int]:
    """Lines that raise or build a bare ValueError; catching one is fine."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id == "ValueError":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "ValueError":
            lines.append(node.lineno)
    return sorted(set(lines))


def test_no_module_raises_a_bare_value_error():
    found = {}
    for info in pkgutil.iter_modules(framemult.__path__):
        tree = ast.parse(inspect.getsource(import_module(f"framemult.{info.name}")))
        if lines := _bare_value_errors(tree):
            found[info.name] = lines
    assert found == {}


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('raise ValueError("bad")\n', True),
        ("raise ValueError\n", True),
        ('failures = [(mask, lambda k: ValueError("bad"))]\n', True),
        ('raise InvalidArgument("bad")\n', False),
        ("try:\n    pass\nexcept ValueError:\n    raise\n", False),
    ],
)
def test_the_guard_flags_a_raise_and_a_built_error(source, flagged):
    assert bool(_bare_value_errors(ast.parse(source))) is flagged


def test_an_invalid_argument_is_both_a_package_error_and_a_value_error():
    with pytest.raises(InvalidArgument) as info:
        onb(0)
    assert isinstance(info.value, FrameMultError) and isinstance(info.value, ValueError)
    with pytest.raises(InvalidArgument, match="matrix entries must be finite"):
        new_frame(np.array([[np.nan, 1.0]]))


def _tiny_tight_dual():
    """A finite 2x4 synthesis matrix whose S is finite and whose (S + S*)/2 overflows."""
    f = _tiny_tight_frame()
    kernel_proj = np.eye(f.count) - f.analysis_op @ np.linalg.solve(f.cached_S, f.synth)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.solve(f.cached_S, f.synth) + _w_for(f, "unbounded") @ kernel_proj


def _raises_without_warnings(expected, function, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(expected):
            function(*args)


@pytest.mark.parametrize(
    "h, expected",
    [
        ([[1e308, 1e308], [-1e308, 1e308]], NotHermitian),  # H - H* and H + H* overflow
        ([[0.0, 1e308], [-1e308, 0.0]], NotHermitian),  # only H - H* overflows
        ([[1e308, 1.5e308j], [1.5e308j, 0.0]], NotHermitian),
        ([[1.5e308, 1e308], [1e308, 1.5e308]], NumericalOverflow),  # Hermitian, H + H* overflows
        ([[1e308, 0.0], [0.0, 1e308]], NumericalOverflow),
        *[(1.44e308 * np.eye(d), NumericalOverflow) for d in range(2, 9)],
    ],
)
def test_herm_eig_extremes_overflow_is_typed_without_warnings(h, expected):
    _raises_without_warnings(expected, herm_eig_extremes, np.array(h, dtype=np.complex128))


@pytest.mark.parametrize(
    "columns, tol",
    [
        # (S + S*)/2 overflows
        *[pytest.param(lambda d=d: 1.2e154 * np.eye(d), Tol(), id=f"1.2e154*I{d}") for d in range(2, 9)],
        pytest.param(lambda: 1e160 * np.eye(3), Tol(), id="1e160*I3"),  # T T* overflows
        pytest.param(_tiny_tight_dual, Tol(inv_cond=0.5), id="tiny-tight-dual"),
    ],
)
def test_new_frame_overflow_is_typed_without_warnings(columns, tol):
    _raises_without_warnings(NumericalOverflow, new_frame, columns(), tol)
