"""The certificate brackets every dual: explicit duals stay under ||R0|| + ||K|| and reach max(||R0||, ||K||).

For a correction op, every dual of the left frame has the residual R0 - K W*
with ||W|| <= 1 for the duals sample_duals draws. So each residual that
verify_gamma_decomposition (or, against duals of the right frame,
verify_theta_decomposition) reports stays under the certificate's upper
bound, and the three duals W = 0 and W = +-x y*, with x, y the top singular
pair of K, reach its lower bound.
"""

from dataclasses import replace

import numpy as np
import pytest

from framemult import (
    DEFAULT_TOL,
    adjoint,
    build,
    canonical_dual,
    gamma_of,
    harmonic_tight,
    proj_ker_synthesis,
    random_dual,
    random_frame,
    random_symbol,
    reciprocal,
    riesz_basis,
    sample_duals,
    theta_of,
    verify_gamma_decomposition,
    verify_theta_decomposition,
)
from framemult.representations import _certificate

PAIRS = {
    "random4x9": lambda: (random_frame(4, 9, (743, 0)), random_frame(4, 9, (743, 1))),
    "random8x17": lambda: (random_frame(8, 17, (743, 2)), random_frame(8, 17, (743, 3))),
    "harmonic": lambda: (harmonic_tight(3, 7), harmonic_tight(3, 7)),
    "riesz": lambda: (riesz_basis(4, (743, 4)), riesz_basis(4, (743, 5))),
}
SIDES = {
    "gamma": (gamma_of, verify_gamma_decomposition, lambda mult: mult),
    "theta": (theta_of, verify_theta_decomposition, adjoint),
}


def _multiplier(name):
    phi, psi = PAIRS[name]()
    for attempt in range(20):
        mult = build(random_symbol(phi.count, 0.5, 2.0, (743, 6, attempt)), phi, psi)
        if mult.inv_diag.invertible:
            return mult
    raise AssertionError(f"no invertible multiplier on {name}")


def _ops(rep):
    """The correction itself, the correction moved by 1e-3 along a unit direction, and none."""
    rng = np.random.default_rng(743)
    direction = rng.standard_normal(rep.op.shape) + 1j * rng.standard_normal(rep.op.shape)
    direction /= np.linalg.norm(direction, 2)
    return {"exact": rep.op, "moved": rep.op + 1e-3 * direction, "none": np.zeros_like(rep.op)}


def _kernel_part(on, op):
    """K = (T_{Psi~} diag(1/m) + op*) P_Phi of the Gamma form on `on` (mult, or its adjoint for Theta)."""
    left = canonical_dual(on.right).frame.synth * reciprocal(on.symbol).values + op.conj().T
    return left @ proj_ker_synthesis(on.left)


@pytest.mark.parametrize("side", sorted(SIDES))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_sampled_duals_stay_under_the_bound_and_explicit_duals_reach_the_floor(name, side):
    rep_of, verify, gamma_form = SIDES[side]
    mult = _multiplier(name)
    on = gamma_form(mult)
    rep = rep_of(mult)
    rel_eq = DEFAULT_TOL.rel_eq
    for label, op in _ops(rep).items():
        r0, k = _certificate(on, op, DEFAULT_TOL)
        sampled = verify(mult, replace(rep, op=op), sample_duals(on.left, count=200)).decomposition_residuals
        assert len(sampled) == 201
        assert max(r for _, r in sampled) <= r0 + k + rel_eq, label

        u, _, vh = np.linalg.svd(_kernel_part(on, op))
        top = np.outer(u[:, 0], vh[0])  # x y*, with K y = ||K|| x and ||x y*|| = 1
        duals = [random_dual(on.left, w) for w in (np.zeros_like(top), top, -top)]
        reached = max(r for _, r in verify(mult, replace(rep, op=op), duals).decomposition_residuals)
        floor = max(r0, k)
        assert reached >= floor - 1e-12 * max(1.0, floor), label
        assert reached <= r0 + k + rel_eq, label
