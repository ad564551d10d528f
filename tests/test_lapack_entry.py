"""The LAPACK entries of framemult.linalg against np.linalg.

_svd_values, _eigvalsh, _inv and _solve call numpy's gufuncs directly. Each
must give every matrix the bits np.linalg gives it, lone or stacked, on
C- and F-ordered operands and on empty stacks, and raise np.linalg's
LinAlgError with np.linalg's message. No module calls np.linalg's SVD,
Hermitian eigensolver, inverse or solver around them.
"""

import ast
import pkgutil

import numpy as np
import pytest

import framemult
from framemult.linalg import _eig_extremes, _eigvalsh, _inv, _solve, _svd_values
from framemult.suites import DEFAULT_DIMS

SHAPES = sorted(set(DEFAULT_DIMS) | {(d, d) for d, _ in DEFAULT_DIMS})
ENTRIES = {"_svd_values": "svd", "_eigvalsh": "eigvalsh", "_inv": "inv", "_solve": "solve"}


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _layouts(a):
    """a in C order, an F-ordered copy and an F-ordered conjugate-transposed view of equal value."""
    view = np.ascontiguousarray(a.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    return a, np.asfortranarray(a), view


def _same(got, want):
    assert type(got) is np.ndarray and got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, n", SHAPES)
@pytest.mark.parametrize("lead", [(), (3,), (0,)])
def test_svd_values_bit_equal(d, n, lead):
    rng = np.random.default_rng((d, n, len(lead)))
    for a in _layouts(_complex(rng, *lead, d, n)):
        for b in (a, a.swapaxes(-1, -2)):
            _same(_svd_values(b), np.linalg.svd(b, compute_uv=False))


@pytest.mark.parametrize("d, n", SHAPES)
@pytest.mark.parametrize("lead", [(), (3,), (0,)])
def test_square_entries_bit_equal(d, n, lead):
    rng = np.random.default_rng((d, n, len(lead), 1))
    t = _complex(rng, *lead, d, n)
    s = t @ t.conj().swapaxes(-1, -2)
    for h in _layouts(s):
        _same(_eigvalsh(h), np.linalg.eigvalsh(h))
        _same(_inv(h), np.linalg.inv(h))
        for rhs in _layouts(t):
            _same(_solve(h, rhs), np.linalg.solve(h, rhs))


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entries_take_complex128_only(name):
    entry = getattr(framemult.linalg, name)
    operands = (np.eye(3),) * (2 if name == "_solve" else 1)
    with pytest.raises(TypeError):
        entry(*operands)


def _raised(call) -> tuple[type, str]:
    with pytest.raises(np.linalg.LinAlgError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("lead", [(), (2,)])
def test_singular_inverse_and_solve_raise_numpys_error(lead):
    singular = np.ones((*lead, 3, 3), dtype=np.complex128)
    rhs = np.ones((*lead, 3, 4), dtype=np.complex128)
    assert _raised(lambda: _inv(singular)) == _raised(lambda: np.linalg.inv(singular))
    assert _raised(lambda: _solve(singular, rhs)) == _raised(lambda: np.linalg.solve(singular, rhs))
    assert _raised(lambda: _inv(singular)) == (np.linalg.LinAlgError, "Singular matrix")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_inputs_raise_numpys_error(bad):
    h = np.eye(3, dtype=np.complex128)
    h[1, 1] = bad
    want = (np.linalg.LinAlgError, "Eigenvalues did not converge")
    assert _raised(lambda: _eigvalsh(h)) == _raised(lambda: np.linalg.eigvalsh(h)) == want
    a = np.ones((3, 4), dtype=np.complex128)
    a[0, 0] = np.nan
    want = (np.linalg.LinAlgError, "SVD did not converge")
    assert _raised(lambda: _svd_values(a)) == _raised(lambda: np.linalg.svd(a, compute_uv=False)) == want


def test_eig_extremes_turns_the_non_converged_matrix_nan():
    # (S + S*)/2 of S = 1.44e308 I is infinite on its diagonal: eigvalsh raises and
    # _eig_extremes catches it, giving that matrix NaN extremes and the others their own.
    with np.errstate(over="ignore", invalid="ignore"):
        big = 1.44e308 * np.eye(3, dtype=np.complex128)
        sym = np.stack([np.eye(3, dtype=np.complex128), (big + big) / 2.0])
    lo, hi = _eig_extremes(sym)
    lone_lo, lone_hi = _eig_extremes(sym[1])
    assert lo[0] == hi[0] == 1.0
    assert np.isnan([lo[1], hi[1], lone_lo, lone_hi]).all()


# ------------------------------------------------------------- one way in

LAPACK_NAMES = set(ENTRIES.values())


def _modules():
    for info in pkgutil.iter_modules(framemult.__path__):
        path = f"{framemult.__path__[0]}/{info.name}.py"
        with open(path, encoding="utf-8") as handle:
            yield info.name, ast.parse(handle.read())


def _is_numpy_linalg(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def test_no_module_bypasses_the_lapack_entries():
    """np.linalg's svd, eigvalsh, inv and solve are never named; _umath_linalg only in the entries."""
    bypasses = []
    for name, tree in _modules():
        entry_gufuncs = set()
        if name == "linalg":
            for node in tree.body:
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
                    call = node.value.func
                    if targets and targets[0] in ENTRIES and getattr(call, "id", None) == "_lapack":
                        entry_gufuncs.add(id(node.value.args[0]))
            assert len(entry_gufuncs) == len(ENTRIES)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in LAPACK_NAMES and _is_numpy_linalg(node.value):
                bypasses.append((name, node.lineno, f"np.linalg.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                named = {alias.name for alias in node.names}
                if named & LAPACK_NAMES or (named & {"_umath_linalg"} and name != "linalg"):
                    bypasses.append((name, node.lineno, f"from numpy.linalg import {sorted(named)}"))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "_umath_linalg"
                and id(node) not in entry_gufuncs
            ):
                bypasses.append((name, node.lineno, f"_umath_linalg.{node.attr}"))
    assert bypasses == [], f"LAPACK called around the entries of framemult.linalg: {bypasses}"
