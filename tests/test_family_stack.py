"""A dual family dual by dual: the explicit residuals bit for bit, bounded by the certificate, and its first error.

A family is built one W_k at a time by frames._dual, which validates it
through _lone_dual, and verify_*_decomposition take a family's residuals one
dual at a time.
"""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from framemult import (
    ExperimentConfig,
    FrameMultError,
    InvalidDual,
    NotAFrame,
    NumericalOverflow,
    adjoint,
    gamma_of,
    new_frame,
    sample_duals,
    theta_of,
    verify_gamma_decomposition,
    verify_theta_decomposition,
)
from framemult import suites
from framemult.frames import _dual, _lone_dual
from framemult.linalg import DEFAULT_TOL, op_norm
from framemult.representations import DUAL_SAMPLE_COUNT, _certificate, _equivalence

SEED = 4244


@contextmanager
def _memo():
    """A memo for suite helpers called outside run_suite, as a run would set it."""
    memo: dict = {}
    token = suites._MEMO.set(memo)
    try:
        yield memo
    finally:
        memo.clear()
        suites._MEMO.reset(token)


def _bits(rows) -> list:
    return [(k, np.float64(r).tobytes()) for k, r in rows]


@pytest.mark.parametrize("trial", range(6))
def test_stack_path_gives_the_dual_frame_residuals_bit_for_bit(trial):
    """A family's residuals are each dual's residual alone, and stay under the certified bound."""
    cfg = ExperimentConfig(suite="all", seed=SEED)
    tol = cfg.tol
    d, n = cfg.dims[trial % len(cfg.dims)]
    with _memo():
        phi_key, psi_key = suites._pair_keys(cfg, trial, d, n)
        _, mult = suites._invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=False)
    sides = (
        (verify_gamma_decomposition, gamma_of(mult, tol), mult.left, mult),
        (verify_theta_decomposition, theta_of(mult, tol), mult.right, adjoint(mult)),
    )
    for verify, rep, frame, on in sides:
        duals = sample_duals(frame, rng=np.random.default_rng((SEED, trial, 5)), tol=tol)
        family = verify(mult, rep, duals, tol).decomposition_residuals
        alone = [verify(mult, rep, [dual], tol).decomposition_residuals[0][1] for dual in duals]
        assert [k for k, _ in family] == list(range(DUAL_SAMPLE_COUNT + 1))
        assert _bits(family) == _bits(enumerate(alone))
        r0, k = _certificate(on, rep.op, tol)
        assert max(r for _, r in family) <= r0 + k + tol.rel_eq
    formula = _equivalence(mult, tol)[1]
    assert formula == sum(_certificate(mult, None, tol))


def _unit_row(rng, d, n):
    a = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    return a / op_norm(a)


def _rank_one_in_kernel(rng, f, size):
    """size * x y* with y a unit vector in ker(T): the dual's frame operator gains size^2 x x*."""
    y = f._kernel_proj @ (rng.standard_normal(f.count) + 1j * rng.standard_normal(f.count))
    x = rng.standard_normal(f.dim) + 0j
    return size * np.outer(x / np.linalg.norm(x), (y / np.linalg.norm(y)).conj())


# W_k for each failure kind, as (the frame's scale, W_k of the frame, the class _lone_dual raises).
# At scale 2^-500 the canonical dual is about 2^500 and S_dual about 2^1000, so
# a W_k of size 2^515 keeps T_dual U within rounding of I and overflows S_dual.
PLANTS = {
    "non-finite": (1.0, lambda rng, f: np.full((f.dim, f.count), np.nan + 0j), NumericalOverflow),
    "non-dual": (1.0, lambda rng, f: 1e12 * _unit_row(rng, f.dim, f.count), InvalidDual),
    "overflow": (2.0**-500, lambda rng, f: 2.0**515 * _unit_row(rng, f.dim, f.count), NumericalOverflow),
    "rank-deficient": (1.0, lambda rng, f: _rank_one_in_kernel(rng, f, 1e6), NotAFrame),
}


def _raised(call) -> FrameMultError:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameMultError) as caught:
            call()
    return caught.value


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", PLANTS)
def test_family_raises_the_lone_error_of_its_first_failing_row(kind, seed):
    """Passing rows, the planted row, then rows of any kind: the planted row decides."""
    rng = np.random.default_rng((seed, len(kind)))
    d = int(rng.integers(2, 6))
    scale, plant, error = PLANTS[kind]
    f = new_frame(scale * (rng.standard_normal((d, d + 3)) + 1j * rng.standard_normal((d, d + 3))))
    planted = int(rng.integers(0, 4))
    rows = [_unit_row(rng, d, f.count) / scale for _ in range(planted)]
    rows.append(plant(rng, f))
    rows += [PLANTS[later][1](rng, f) for later in rng.choice(list(PLANTS), int(rng.integers(0, 3)))]
    lone = _raised(lambda: _lone_dual(f, f._canonical_synth + rows[planted] @ f._kernel_proj, DEFAULT_TOL))
    assert type(lone) is error
    family = _raised(lambda: [_dual(f, row, DEFAULT_TOL) for row in rows])
    assert (type(family), str(family)) == (error, str(lone))
