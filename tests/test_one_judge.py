"""One judge per operand, and one LU guard.

Input from outside is judged by as_matrix; a matrix the package derives is
judged by the overflow rule alone (formed under _quiet, then _finite, then
_norm). So no module calls the public op_norm, and one handler, in
linalg._lu_inv, turns the LU entry's zero-pivot LinAlgError into Singular for
inv and the multiplier's inverse memo alike. The edge cases below are the
ones where the two judges disagreed: each raises a typed error with no
warning.
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
    NumericalOverflow,
    Singular,
    build,
    gamma_of,
    invert,
    new_symbol,
    random_frame,
    random_symbol,
    thm1_report,
)
from framemult.linalg import _inv, _lu_inv, approx_equal, inv, pinv, rel_residual

LARGEST = float(np.finfo(float).max)


def _modules():
    for info in pkgutil.iter_modules(framemult.__path__):
        yield info.name, ast.parse(inspect.getsource(import_module(f"framemult.{info.name}")))


def _scopes(tree):
    """(node, qualified name of its function) for every node."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_module_calls_op_norm():
    calls = {
        (module, scope)
        for module, tree in _modules()
        for node, scope in _scopes(tree)
        if isinstance(node, ast.Call) and "op_norm" in _names(node.func)
    }
    assert calls == set()


def test_one_handler_turns_the_lu_error_into_singular():
    handlers = {
        (module, scope)
        for module, tree in _modules()
        for node, scope in _scopes(tree)
        if isinstance(node, ast.ExceptHandler) and node.type is not None and "LinAlgError" in _names(node.type)
    }
    assert handlers == {("linalg", "_lu_inv")}
    importers = {
        module
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(alias.name == "LinAlgError" for alias in node.names)
    }
    assert importers == {"linalg"}


def _quietly(call):
    """The FrameMultError class call() raises, or None; a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except FrameMultError as exc:
            return type(exc)
    return None


def _subnormal_multiplier():
    """A finite multiplier at scale 2^-1030 that passes the singularity proxy; its inverse overflows."""
    m = random_symbol(7, 0.5, 2.0, 3)
    mult = build(new_symbol(m.values * 2.0**-1030), random_frame(3, 7, 1), random_frame(3, 7, 2))
    assert mult.inv_diag.invertible
    return mult


def test_an_inverse_that_overflows_is_a_numerical_overflow():
    mult = _subnormal_multiplier()
    for call in (invert, gamma_of, thm1_report):
        assert _quietly(lambda: call(mult)) is NumericalOverflow


def test_inv_turns_a_zero_pivot_into_singular():
    rng = np.random.default_rng(0)
    zero_pivots = 0
    for _ in range(200):
        a = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 2.0**-1073
        try:
            _inv(a)
        except np.linalg.LinAlgError:
            zero_pivots += 1
            assert _quietly(lambda: inv(a)) is Singular
            continue
        assert _quietly(lambda: inv(a)) in (Singular, NumericalOverflow)
    assert zero_pivots == 6


def test_inv_and_the_multiplier_memo_share_the_kernel():
    mult = build(random_symbol(7, 0.5, 2.0, 3), random_frame(3, 7, 1), random_frame(3, 7, 2))
    expected = _lu_inv(mult.matrix).tobytes()
    assert mult._inverse[0].tobytes() == expected
    assert inv(mult.matrix).tobytes() == expected


def test_a_difference_that_overflows_is_a_numerical_overflow():
    assert _quietly(lambda: rel_residual([[1e308]], [[-1e308]])) is NumericalOverflow
    assert _quietly(lambda: approx_equal([[1e308]], [[-1e308]])) is NumericalOverflow
    assert _quietly(lambda: rel_residual([[1e308]], [[1e308]])) is None
    # An infinite norm would read the quotient as 0, and X as equal to X / 2.
    big = np.full((2, 2), 1e308)
    assert _quietly(lambda: approx_equal(big, big / 2.0)) is NumericalOverflow


def test_a_pseudo_inverse_that_overflows_is_a_numerical_overflow():
    assert _quietly(lambda: pinv(1e-320 * np.eye(2))) is NumericalOverflow
    assert _quietly(lambda: pinv(np.zeros((2, 2)))) is None


def test_a_draw_whose_modulus_overflows_is_a_numerical_overflow():
    with pytest.raises(NumericalOverflow, match="modulus of a finite symbol overflows"):
        random_symbol(20, LARGEST, LARGEST, 0)
    assert _quietly(lambda: random_symbol(20, LARGEST / 2.0, LARGEST / 2.0, 0)) is None
