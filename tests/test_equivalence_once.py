"""One certificate per equivalence trial, step by step; norms and noise drawn once."""

import numpy as np
import pytest

from framemult import (
    ExperimentConfig,
    FrameMultError,
    Singular,
    Tol,
    build,
    canonical_dual,
    equivalence_criterion,
    equivalence_map,
    gamma_of,
    invert,
    new_frame,
    proj_ker_synthesis,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    reciprocal,
    riesz_basis,
    run_suite,
    sample_duals,
    scale_by_symbol,
)
from framemult import multiplier, representations, suites
from framemult.linalg import herm_eig_extremes, op_norm
from framemult.multiplier import _inverse_norm
from framemult.perturbation import _noise, _perturbed

FRAME_PAIRS = {
    "4x9": lambda: (random_frame(4, 9, (409, 0)), random_frame(4, 9, (409, 1))),
    "8x17": lambda: (random_frame(8, 17, (409, 2)), random_frame(8, 17, (409, 3))),
    "riesz3": lambda: (riesz_basis(3, (409, 4)), riesz_basis(3, (409, 5))),
}


def _multiplier(name):
    phi, psi = FRAME_PAIRS[name]()
    for attempt in range(20):
        mult = build(random_symbol(phi.count, 0.5, 2.0, (409, attempt)), phi, psi)
        if mult.inv_diag.invertible:
            return mult
    raise AssertionError(f"no invertible multiplier on {name}")


def _equivalent_multiplier(name):
    """A multiplier whose right frame is V(m phi) for an invertible V."""
    phi, _ = FRAME_PAIRS[name]()
    m = random_symbol(phi.count, 0.5, 2.0, (409, 99))
    v = riesz_basis(phi.dim, (409, 98))
    return build(m, phi, new_frame(v.synth @ (phi.synth * m.values[np.newaxis, :])))


def _note(exc):
    return f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------- step-by-step reference


def _reference_multiplier(seed, trial, d, n, tol):
    """The equivalence trial's multiplier, built from the public API as the suite builds it."""
    phi = random_frame(d, n, (seed, trial, 0), tol=tol)
    psi = random_frame(d, n, (seed, trial, 1), tol=tol)
    if trial % 2 == 0:
        m = random_symbol(n, 0.5, 2.0, (seed, trial, 2))
        v = riesz_basis(d, (seed, trial, 6), tol=tol)
        return build(m, phi, new_frame(v.synth @ (phi.synth * m.values[np.newaxis, :]), tol), tol)
    for attempt in range(suites.RESAMPLE_LIMIT):
        mult = build(random_symbol(n, 0.5, 2.0, (seed, trial, 2, attempt)), phi, psi, tol)
        if mult.inv_diag.invertible:
            return mult
    raise FrameMultError("no invertible multiplier")


def _reference_trial(seed, trial, d, n, tol):
    """(note, certified formula bound) of one equivalence trial, computed step by step in order."""
    try:
        mult = _reference_multiplier(seed, trial, d, n, tol)
        minv = invert(mult, tol)
        equivalence_map(scale_by_symbol(mult.left, mult.symbol, tol), mult.right, tol)
        gamma_of(mult, tol)
        left = canonical_dual(mult.right, tol).frame.synth * reciprocal(mult.symbol).values
    except FrameMultError as exc:
        return _note(exc), None
    phi = mult.left
    r0 = minv - left @ np.linalg.solve(phi.cached_S, phi.synth).conj().T
    return "", op_norm(r0) + op_norm(left @ proj_ker_synthesis(phi))


def test_equivalence_notes_follow_the_step_by_step_order():
    tol = Tol(rel_eq=1e-15)
    cfg = ExperimentConfig(suite="equivalence", trials=40, seed=3, tol=tol)
    records = run_suite(cfg).records
    reference = [_reference_trial(3, r.trial, r.d, r.n, tol) for r in records]
    assert [r.note for r in records] == [note for note, _ in reference]
    for record, (note, max_formula) in zip(records, reference):
        if not note:
            assert record.residuals["max_formula_residual"] == max_formula
    # Trials whose inverse and whose right frame's canonical dual both fail the Tol: the inverse decides.
    both = []
    for record in records:
        mult = _reference_multiplier(3, record.trial, record.d, record.n, tol)
        try:
            canonical_dual(mult.right, tol)
        except FrameMultError as exc:
            if record.note.startswith("Singular"):
                both.append(_note(exc))
    assert both and all(note.startswith("InvalidDual") for note in both)


# ------------------------------------------------------------ public criterion


def _hand_criterion(mult, tol):
    """The three readings from np.linalg: all_duals_formula on ||R0|| + ||K||, with S^{-1}T and P from pinv."""
    minv = invert(mult, tol)
    scale = max(1.0, op_norm(minv))
    equivalent = equivalence_map(scale_by_symbol(mult.left, mult.symbol, tol), mult.right, tol)
    gamma_zero = op_norm(gamma_of(mult, tol).op) <= tol.rel_eq * scale
    left = canonical_dual(mult.right, tol).frame.synth * reciprocal(mult.symbol).values
    pinv_t = np.linalg.pinv(mult.left.synth)  # U S^{-1}, so P = I - pinv(T) T
    bound = op_norm(minv - left @ pinv_t) + op_norm(left @ (np.eye(mult.left.count) - pinv_t @ mult.left.synth))
    # Every dual stays under the bound: the seed-2026 family too.
    sampled = [op_norm(minv - left @ d.frame.analysis_op) for d in sample_duals(mult.left)]
    assert max(sampled) <= bound + tol.rel_eq * scale
    return (equivalent is not None, gamma_zero, bound <= tol.rel_eq * scale)


@pytest.mark.parametrize("make", [_multiplier, _equivalent_multiplier])
@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_public_criterion_decides_every_dual(name, make):
    mult = make(name)
    assert tuple(equivalence_criterion(mult)) == _hand_criterion(mult, Tol())


# --------------------------------------------------------- computed once per run


def test_combined_run_takes_each_norm_once_and_samples_no_seed_2026_family(monkeypatch):
    # The suites draw their probe directions through their own reference to
    # _unit_w, so any call through the module attribute is a seed-2026 draw by
    # sample_duals, which no suite makes.
    sampled = []
    for name in ("sample_duals", "_unit_w"):
        monkeypatch.setattr(representations, name, lambda *a, _n=name, **k: sampled.append(_n))
    normed = []
    real_op_norm = op_norm

    def counting_op_norm(a):
        normed.append(a)
        return real_op_norm(a)

    for module in (multiplier, representations):  # suites calls no op_norm of its own
        monkeypatch.setattr(module, "op_norm", counting_op_norm)
    built = []
    real_build = suites.build

    def recording_build(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr(suites, "build", recording_build)
    run_suite(ExperimentConfig(suite="all", dims=((2, 5), (3, 7), (4, 9)), trials=8, seed=11))
    assert sampled == []

    def times_normed(array):
        return sum(a is array for a in normed)

    inverses = [mult._inverse[0] for mult in built if "_inverse" in mult.__dict__]
    gammas = [rep.op for mult in built if "_gammas" in mult.__dict__ for rep in mult._gammas.values()]
    assert inverses and gammas
    # ||M^{-1}|| is read as 1/sigma_min(M) from build's SVD: no inverse is normed.
    assert [times_normed(a) for a in inverses] == [0] * len(inverses)
    assert [times_normed(a) for a in gammas] == [1] * len(gammas)


def test_memoized_inverse_norm_still_raises_singular_under_a_tighter_tol():
    mult = _multiplier("8x17")
    norm = _inverse_norm(mult, Tol())
    assert norm == 1.0 / mult.inv_diag.sigma_min
    residual = mult._inverse[1]
    assert residual > 0.0
    tight = Tol(rel_eq=residual / 2.0)
    for _ in range(2):
        with pytest.raises(Singular):
            _inverse_norm(mult, tight)
        with pytest.raises(Singular):
            equivalence_criterion(mult, tight)
    assert _inverse_norm(mult, Tol(rel_eq=2.0 * residual)) == norm


# --------------------------------------------------------- per2 and shared noise


def test_per2_floor_ratio_equals_the_former_eigenvalue_expression():
    cfg = ExperimentConfig(suite="per2", trials=14, seed=5)
    checked = 0
    memo: dict = {}
    token = suites._MEMO.set(memo)  # the bodies run outside run_suite, so this test gives them a memo
    try:
        for trial in range(cfg.trials):
            memo.clear()
            d, n = cfg.dims[trial % len(cfg.dims)]
            try:
                got = suites._trial_per2(cfg, trial, d, n)
            except FrameMultError:
                continue
            keys = suites._pair_keys(cfg, trial, d, n)
            m, mult = suites._invertible_instance(cfg, trial, *keys, zero_entry=True)
            scaled = mult.left.synth * m.values[np.newaxis, :]
            lo, _ = herm_eig_extremes(scaled @ scaled.conj().T, cfg.tol)
            expected = lo * mult.left.bounds[1] * (1.0 / mult.inv_diag.sigma_min) ** 2
            assert np.float64(got.residuals["floor_ratio"]).tobytes() == np.float64(expected).tobytes()
            checked += 1
    finally:
        memo.clear()
        suites._MEMO.reset(token)
    assert checked >= 10


@pytest.mark.parametrize("name", sorted(FRAME_PAIRS))
def test_random_frame_perturbation_keeps_its_bits(name):
    f = FRAME_PAIRS[name]()[0]
    rng = np.random.default_rng((409, 3))
    noise = rng.standard_normal((f.dim, f.count)) + 1j * rng.standard_normal((f.dim, f.count))
    expected = new_frame(f.synth + noise * (0.9 * 0.1 / op_norm(noise)))
    got = random_frame_perturbation(f, 0.1, (409, 3))
    assert got.synth.tobytes() == expected.synth.tobytes()
    assert got.synth.tobytes() == _perturbed(f, 0.1, _noise((409, 3), f.dim, f.count), Tol()).synth.tobytes()


def test_combined_run_draws_the_stream_3_noise_once_per_trial(monkeypatch):
    draws = []

    def counting(seed, d, n):
        draws.append(seed)
        return _noise(seed, d, n)

    monkeypatch.setattr(suites, "_noise", counting)
    run_suite(ExperimentConfig(suite="all", dims=((2, 5), (3, 7)), trials=4, seed=4243))
    assert draws == [(4243, t, 3) for t in range(4)]
