"""A public function that takes one of the package's own types refuses anything else.

Each function below reads its Multiplier, Frame or RepResult argument by
attribute; a value of another type is an InvalidArgument naming the expected
type, not Python's AttributeError.
"""

import numpy as np
import pytest

from framemult import (
    InvalidArgument,
    adjoint,
    analysis,
    build,
    canonical_inverse_candidate,
    dagger_frames,
    equivalence_criterion,
    gamma_of,
    harmonic_tight,
    invert,
    new_symbol,
    synthesis,
    theta_of,
    thm1_report,
    verify_gamma_decomposition,
    verify_theta_decomposition,
)

FRAME = harmonic_tight(2, 3)
SYMBOL = new_symbol([1.0, 2.0, 3.0])
MULT = build(SYMBOL, FRAME, FRAME)

# (the call on the argument under test, that argument's type)
CALLS = {
    "adjoint": (adjoint, "Multiplier"),
    "invert": (invert, "Multiplier"),
    "canonical_inverse_candidate": (canonical_inverse_candidate, "Multiplier"),
    "dagger_frames": (dagger_frames, "Multiplier"),
    "thm1_report": (thm1_report, "Multiplier"),
    "gamma_of": (gamma_of, "Multiplier"),
    "theta_of": (theta_of, "Multiplier"),
    "verify_gamma_decomposition": (lambda v: verify_gamma_decomposition(v, gamma_of(MULT), []), "Multiplier"),
    "verify_gamma_decomposition-g": (lambda v: verify_gamma_decomposition(MULT, v, []), "RepResult"),
    "verify_theta_decomposition": (lambda v: verify_theta_decomposition(v, theta_of(MULT), []), "Multiplier"),
    "verify_theta_decomposition-t": (lambda v: verify_theta_decomposition(MULT, v, []), "RepResult"),
    "equivalence_criterion": (equivalence_criterion, "Multiplier"),
    "analysis": (lambda v: analysis(v, [1.0, 0.0]), "Frame"),
    "synthesis": (lambda v: synthesis(v, [1.0, 0.0, 0.0]), "Frame"),
}
WRONG = {
    "None": None,
    "int": 3,
    "str": "mult",
    "ndarray": np.eye(2),
    "Frame": FRAME,
    "Symbol": SYMBOL,
    "Multiplier": MULT,
}
CASES = [
    pytest.param(call, kind, value, id=f"{function}-{name}")
    for function, (call, kind) in CALLS.items()
    for name, value in WRONG.items()
    if name != kind
]


@pytest.mark.parametrize("call, kind, value", CASES)
def test_a_value_of_another_type_is_an_invalid_argument(call, kind, value):
    with pytest.raises(InvalidArgument, match=f"must be a {kind}, got {type(value).__name__}$"):
        call(value)
