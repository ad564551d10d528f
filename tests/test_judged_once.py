"""Each operand is judged once: the norm kernel, the error state and derived symbols.

linalg._norm is the one operator norm kernel, for a matrix already judged;
op_norm is _norm of as_matrix. linalg._quiet enters numpy's error state only
at the outermost decorated call, so a nested call runs in the state its
caller set. A symbol the package forms itself is checked once by
symbols._derived, and reciprocal is formed once per symbol.
"""

import gc
import threading
import warnings
import weakref

import numpy as np
import pytest

from framemult import InvalidArgument, NumericalOverflow, ZeroEntry, new_symbol, perturb_symbol, random_symbol
from framemult import reciprocal
from framemult.linalg import _norm, _quiet, op_norm
from framemult.symbols import _derived

SHAPES = {"d x d": (4, 4), "d x N": (3, 7), "N x d": (7, 3), "1 x 1": (1, 1), "0 x 0": (0, 0), "3 x 0": (3, 0)}


def _draw(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [0, 1608])
def test_the_kernel_is_op_norm_bit_for_bit(shape, seed):
    mat = _draw(SHAPES[shape], seed)
    for operand in (mat, mat.T):  # a strided view too
        assert np.float64(_norm(operand)).tobytes() == np.float64(op_norm(operand)).tobytes()
        assert type(_norm(operand)) is float
        if mat.size:
            assert _norm(operand) == float(np.linalg.svd(operand, compute_uv=False)[0])
        else:
            assert _norm(operand) == 0.0


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, np.nan]]),
        np.array([[np.inf, 1.0], [0.0, 1.0]]),
        np.array([[complex(1.0, -np.inf)]]),
        np.ones(3),
        np.ones((2, 2, 2)),
        np.float64(1.0),
    ],
    ids=["nan", "inf", "complex inf", "ndim 1", "ndim 3", "ndim 0"],
)
def test_op_norm_still_judges_its_operand(bad):
    with pytest.raises(InvalidArgument):
        op_norm(bad)


# ------------------------------------------------------------ the error state


def _overflow() -> np.float64:
    return np.float64(1e308) * 10.0


@_quiet
def _inner():
    return _overflow(), np.geterr()


@_quiet
def _outer_raising_inside():
    """An outer call that sets over="raise" for its nested call: a nested call enters no state of its own."""
    with np.errstate(over="raise"):
        return _inner()


@_quiet
def _outer():
    return _inner()


@_quiet
def _fails():
    _inner()
    raise ZeroEntry("raised inside")


@pytest.mark.parametrize("caller", [{}, {"over": "raise", "divide": "warn"}, {"all": "raise"}])
def test_quiet_is_entered_once_and_leaves_the_callers_state(caller):
    with np.errstate(**caller):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, inside = _outer()
        assert value == np.inf  # the overflow stays silent
        assert inside == {**before, "over": "ignore", "invalid": "ignore"}  # divide and under are the caller's
        assert np.geterr() == before
        with pytest.raises(FloatingPointError):
            _outer_raising_inside()  # the nested call ran in its caller's over="raise"
        assert np.geterr() == before
        with pytest.raises(ZeroEntry):
            _fails()
        assert np.geterr() == before
        value, inside = _inner()  # an outermost call again after the raise
        assert value == np.inf and inside["over"] == "ignore"
        assert np.geterr() == before


def test_a_thread_started_inside_a_quiet_call_enters_its_own_state():
    got = []

    @_quiet
    def spawning():
        worker = threading.Thread(target=lambda: got.append(_inner()))
        worker.start()
        worker.join(timeout=10.0)
        return worker.is_alive()

    with np.errstate(over="raise"):
        assert spawning() is False
    (value, inside), = got
    assert value == np.inf and inside["over"] == "ignore" and inside["invalid"] == "ignore"


def test_a_package_overflow_inside_a_package_call_stays_typed_and_silent():
    m = new_symbol([1e-310, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            before = np.geterr()
            for _ in range(2):
                with pytest.raises(NumericalOverflow, match="reciprocal of a finite symbol overflows"):
                    reciprocal(m)
            assert np.geterr() == before


# ---------------------------------------------------------- derived symbols


def _same(a, b) -> bool:
    return (
        a.values.tobytes() == b.values.tobytes()
        and a.values.dtype == b.values.dtype
        and (a.inf_mod, a.sup_mod) == (b.inf_mod, b.sup_mod)
    )


@pytest.mark.parametrize("seed", [0, 7, 1608])
def test_derived_symbols_match_new_symbol_bit_for_bit_and_are_read_only(seed):
    m = random_symbol(9, 0.5, 2.0, seed)
    rng = np.random.default_rng(seed)
    moduli, phases = rng.uniform(0.5, 2.0, size=9), rng.uniform(0.0, 2.0 * np.pi, size=9)
    assert _same(m, new_symbol(moduli * np.exp(1j * phases)))
    derived = {
        "random_symbol": m,
        "reciprocal": reciprocal(m),
        "perturb_symbol": perturb_symbol(m, 0.1, seed),
        "_derived": _derived(m.values * 3.0),
    }
    for name, symbol in derived.items():
        assert _same(symbol, new_symbol(np.array(symbol.values))), name
        assert not symbol.values.flags.writeable, name
        with pytest.raises(ValueError):
            symbol.values[0] = 0.0
    assert _same(derived["reciprocal"], new_symbol(1.0 / m.values))


def test_derived_keeps_each_error_of_new_symbol():
    with pytest.raises(InvalidArgument, match="symbol entries and their moduli must be finite"):
        _derived(np.array([1.0, np.nan], dtype=np.complex128))
    with pytest.raises(NumericalOverflow, match="perturbation of a finite symbol overflows"):
        _derived(np.array([1.0, np.inf], dtype=np.complex128), "perturbation")
    with pytest.raises(InvalidArgument, match="symbol entries and their moduli must be finite"):
        new_symbol([1.5e308 + 1.5e308j])  # a finite entry whose modulus overflows


def test_reciprocal_is_formed_once_per_symbol():
    m = random_symbol(7, 0.5, 2.0, 3)
    first = reciprocal(m)
    assert reciprocal(m) is first
    assert reciprocal(random_symbol(7, 0.5, 2.0, 3)) is not first  # a new symbol, a new memo
    zero = new_symbol([0.0, 1.0])
    for _ in range(2):  # refused on every call, nothing stored
        with pytest.raises(ZeroEntry):
            reciprocal(zero)
    assert "_reciprocal" not in vars(zero)


def test_the_reciprocal_memo_creates_no_reference_cycle():
    gc.disable()
    try:
        m = random_symbol(7, 0.5, 2.0, 5)
        inverse = reciprocal(m)
        reciprocal(inverse)
        ref, inverse_ref = weakref.ref(m), weakref.ref(inverse)
        del m, inverse
        assert ref() is None and inverse_ref() is None
    finally:
        gc.enable()
