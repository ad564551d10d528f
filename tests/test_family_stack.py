"""A trial's dual family as one read-only synthesis stack: the bits of the DualFrame path, less memory."""

import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from framemult import (
    ExperimentConfig,
    FrameMultError,
    InvalidArgument,
    InvalidDual,
    NotAFrame,
    NumericalOverflow,
    canonical_dual,
    gamma_of,
    new_frame,
    run_suite,
    sample_duals,
    theta_of,
)
from framemult import suites
from framemult.frames import _dual_family, _family_stack, _lone_dual
from framemult.linalg import DEFAULT_TOL, _op_norms
from framemult.representations import (
    DUAL_SAMPLE_COUNT,
    _decompose,
    _decomposition_residuals,
    _equivalence,
)
from framemult.suites import GENERATOR_NAMES

SEED = 4244
DIMS = {
    "random": ((2, 5), (3, 7)),
    "harmonic": ((2, 5), (3, 6)),
    "gabor": ((2, 4), (3, 9)),
    "riesz": ((2, 2), (3, 3)),
    "onb": ((2, 3), (3, 4)),
}


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


def _family_entries(memo: dict) -> list[tuple[object, np.ndarray, np.ndarray]]:
    """(frame, W block, memoized stack) for every dual family in a trial's memo."""
    entries = []
    for key, stack in memo.items():
        if key[0] is suites._sample_duals:
            _, frame_key, seed, _ = key
            f = memo[(suites._make_frame, *frame_key)]
            entries.append((f, memo[(suites._draw_w, seed, f.dim, f.count)], stack))
    return entries


@pytest.mark.parametrize("generator", GENERATOR_NAMES)
def test_memoized_stack_is_the_dual_frames_synths_bit_for_bit(monkeypatch, generator):
    entries = []
    body = suites._TRIAL_BODIES["equivalence"]  # the last suite of a trial

    def watched(cfg, trial, d, n):
        try:
            return body(cfg, trial, d, n)
        finally:
            entries.extend(_family_entries(suites._MEMO.get()))

    monkeypatch.setitem(suites._TRIAL_BODIES, "equivalence", watched)
    run_suite(ExperimentConfig(suite="all", dims=DIMS[generator], trials=4, seed=SEED, generator=generator))
    assert len(entries) >= 4
    for f, w, stack in entries:
        assert not stack.flags.writeable
        assert stack.shape == (DUAL_SAMPLE_COUNT + 1, f.dim, f.count)
        synths = [canonical_dual(f).frame.synth, *(x.frame.synth for x in _dual_family(f, w, DEFAULT_TOL))]
        assert stack.tobytes() == np.stack(synths).tobytes()


def _bits(rows) -> list:
    return [[(k, np.float64(r).tobytes()) for k, r in row] for row in rows]


@pytest.mark.parametrize("trial", range(6))
def test_stack_path_gives_the_dual_frame_residuals_bit_for_bit(trial):
    cfg = ExperimentConfig(suite="all", seed=SEED)
    tol = cfg.tol
    d, n = cfg.dims[trial % len(cfg.dims)]
    seed = (cfg.seed, trial, 5)
    with _memo():
        phi_key, psi_key = suites._pair_keys(cfg, trial, d, n)
        _, mult = suites._invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=False)
        stacks = {}
        sides = (("Gamma", phi_key, gamma_of(mult, tol)), ("Theta", psi_key, theta_of(mult, tol)))
        for kind, key, rep in sides:
            stack = stacks[kind] = suites._shared(suites._sample_duals, key, seed, tol)
            duals = sample_duals(suites._frame(key), rng=np.random.default_rng(seed), tol=tol)
            ops = [rep.op, rep.op + np.full(rep.op.shape, 1e-9 + 2e-9j)]
            got = _decompose(mult, kind, ops, stack, tol)
            assert _bits(got) == _bits(_decomposition_residuals(mult, kind, ops, duals, tol))
            assert [k for k, _ in got[0]] == list(range(DUAL_SAMPLE_COUNT + 1))
        left_duals = sample_duals(mult.left, rng=np.random.default_rng(seed), tol=tol)
        via_stack = _equivalence(mult, tol, lambda: stacks["Gamma"])
        via_duals = _equivalence(mult, tol, lambda: np.stack([x.frame.synth for x in left_duals]))
    assert via_stack[0] == via_duals[0]
    assert via_stack[1].tobytes() == via_duals[1].tobytes()


def test_a_family_memo_entry_retains_its_synthesis_stack_only():
    cfg = ExperimentConfig(suite="all", dims=((8, 17),), seed=SEED)
    key = suites._pair_keys(cfg, 0, 8, 17)[0]
    seed = (cfg.seed, 0, 5)
    with _memo():
        f = suites._frame(key)
        f._kernel_proj  # the frame's caches, alive like the W block before the family
        # warm: the W block, the canonical dual and first-call allocations
        suites._sample_duals(key, seed, cfg.tol)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            entry = suites._sample_duals(key, seed, cfg.tol)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    stack = (DUAL_SAMPLE_COUNT + 1) * f.dim * f.count * 16  # complex (K+1, d, N)
    assert stack == 45_696
    assert entry.shape == (DUAL_SAMPLE_COUNT + 1, f.dim, f.count)
    # The K frame operators alone would add 20,480 B.
    assert retained <= stack + 1024, f"retained {retained} B"


def _unit_row(rng, d, n):
    a = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    return a / _op_norms(a)


def _rank_one_in_kernel(rng, f, size):
    """size * x y* with y a unit vector in ker(T): the dual's frame operator gains size^2 x x*."""
    y = f._kernel_proj @ (rng.standard_normal(f.count) + 1j * rng.standard_normal(f.count))
    x = rng.standard_normal(f.dim) + 0j
    return size * np.outer(x / np.linalg.norm(x), (y / np.linalg.norm(y)).conj())


# W_k for each failure kind, as (the frame's scale, W_k of the frame, the class _lone_dual raises).
# At scale 2^-500 the canonical dual is about 2^500 and S_dual about 2^1000, so
# a W_k of size 2^515 keeps T_dual U within rounding of I and overflows S_dual.
PLANTS = {
    "non-finite": (1.0, lambda rng, f: np.full((f.dim, f.count), np.nan + 0j), InvalidArgument),
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
    stacked = _raised(lambda: _family_stack(f, np.stack(rows), DEFAULT_TOL))
    assert (type(stacked), str(stacked)) == (error, str(lone))
