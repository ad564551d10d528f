"""One home per perturbation hypothesis.

Each admission hypothesis of the companions is written once in
framemult.perturbation, as the size it admits; the companions admit against
it and the suites size their requests from it. These tests pin that the
suites derive no bound themselves, that every request keeps the bits of the
inline expression it replaced, that the admission comparisons decide as the
former ones did, and the measured rates of the transcribed constants that
README's admission-constant table reports.
"""

import ast
import inspect

import numpy as np
import pytest

from framemult import (
    DEFAULT_TOL,
    HypothesisViolated,
    NotAFrame,
    build,
    companion_per1,
    companion_per2,
    companion_per3,
    finite_gabor,
    harmonic_tight,
    new_symbol,
    onb,
    random_frame,
    random_frame_perturbation,
    random_symbol,
    riesz_basis,
    scale_by_symbol,
)
from framemult import suites
from framemult.perturbation import (
    _floor_ok,
    _per1_cap,
    _per2_cap,
    _per3_invertible_cap,
    _per3_semi_cap,
)
from framemult.linalg import op_norm
from framemult.suites import ExperimentConfig, run_suite

SEEDS = (0, 1608)
FACTORS = (0.5, 0.999, 1.001, 2.0)
REL = DEFAULT_TOL.rel_eq


def _bits(x) -> tuple[type, bytes]:
    return type(x), np.float64(x).tobytes()


# ------------------------------------------------------------------ no bounds


def test_suites_read_no_frame_bound_and_no_sigma_min():
    tree = ast.parse(inspect.getsource(suites))
    reads = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("bounds", "sigma_min")
    )
    assert reads == [], f"suites.py sizes a perturbation itself at {reads}"


# ------------------------------------------------------------------- requests


def _record_requests(monkeypatch, name: str, seed: int) -> list[tuple]:
    """Run one companion suite over the default dims and return what sized each request.

    Each entry is (trial, request, moved frame or None, symbol, multiplier or
    None): the frame _perturbed moved, or the symbol perturb_symbol moved,
    together with the trial's invertible instance where it drew one.
    """
    seen: list[tuple] = []
    instance: dict = {}
    make_instance, perturbed, perturb = (
        suites._invertible_instance,
        suites._perturbed,
        suites.perturb_symbol,
    )

    def record_instance(cfg, trial, *args, **kwargs):
        instance["trial"], instance["got"] = trial, make_instance(cfg, trial, *args, **kwargs)
        return instance["got"]

    def record_perturbed(f, mu, noise, tol):
        seen.append((None, mu, f, *instance.get("got", (None, None))))
        return perturbed(f, mu, noise, tol)

    def record_perturb(m, eps, rng_seed):
        trial = rng_seed[1]
        mult = instance["got"][1] if instance.get("trial") == trial else None
        seen.append((trial, eps, None, m, mult))
        return perturb(m, eps, rng_seed)

    monkeypatch.setattr(suites, "_invertible_instance", record_instance)
    monkeypatch.setattr(suites, "_perturbed", record_perturbed)
    monkeypatch.setattr(suites, "perturb_symbol", record_perturb)
    run_suite(ExperimentConfig(suite=name, seed=seed))
    return seen


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["per1", "per1dual"])
def test_per1_requests_keep_the_former_bits(monkeypatch, name, seed):
    seen = _record_requests(monkeypatch, name, seed)
    assert len(seen) == 100
    for _, mu_request, moved, _, _ in seen:
        assert _bits(mu_request) == _bits(0.5 * np.sqrt(moved.bounds[0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_per2_requests_keep_the_former_bits(monkeypatch, seed):
    seen = _record_requests(monkeypatch, "per2", seed)
    assert len(seen) == 100
    for _, mu_request, phi, m, mult in seen:
        assert phi is mult.left
        inv_norm = 1.0 / mult.inv_diag.sigma_min
        expected = min(
            0.9 / (np.sqrt(phi.bounds[1]) * inv_norm * m.sup_mod),
            np.sqrt(phi.bounds[0]),
        )
        assert _bits(mu_request) == _bits(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_per3_requests_keep_the_former_bits(monkeypatch, seed):
    seen = _record_requests(monkeypatch, "per3", seed)
    assert len(seen) == 100
    for trial, eps, _, m, mult in seen:
        if trial % 2 == 0:
            expected = 0.5 * m.inf_mod
        else:
            expected = 0.45 * mult.inv_diag.sigma_min / mult.left.bounds[1]
        assert _bits(eps) == _bits(expected)


# ------------------------------------------------------------------ admission

GENERATED_PAIRS = {
    "random": lambda: (random_frame(4, 9, (419, 0)), random_frame(4, 9, (419, 1))),
    "harmonic": lambda: (harmonic_tight(4, 9), harmonic_tight(4, 9)),
    "gabor": lambda: (finite_gabor(4, 1, 1), finite_gabor(4, 1, 1)),
    "riesz": lambda: (riesz_basis(4, (419, 2)), riesz_basis(4, (419, 3))),
    "onb": lambda: (onb(4), onb(4)),
}


def _instance(generator: str):
    phi, psi = GENERATED_PAIRS[generator]()
    m = random_symbol(phi.count, 0.5, 2.0, (419, 4))
    mult = build(m, phi, psi)
    assert mult.inv_diag.invertible
    return phi, psi, m, mult


@pytest.mark.parametrize("generator", sorted(GENERATED_PAIRS))
def test_admission_comparisons_decide_as_the_former_ones(generator):
    phi, _, m, mult = _instance(generator)
    b_phi, inv_norm = phi.bounds[1], 1.0 / mult.inv_diag.sigma_min
    for factor in FACTORS:
        mu = factor * _per1_cap(phi)
        assert (mu >= _per1_cap(phi)) == (mu >= np.sqrt(phi.bounds[0])) == (factor > 1.0)
        mu = factor * _per2_cap(phi, m, mult)
        former = mu * m.sup_mod >= 1.0 / (np.sqrt(b_phi) * inv_norm)
        assert (mu >= _per2_cap(phi, m, mult)) == former == (factor > 1.0)
        eps = factor * _per3_invertible_cap(phi, mult)
        former = eps * b_phi < mult.inv_diag.sigma_min
        assert (eps < _per3_invertible_cap(phi, mult)) == former == (factor < 1.0)
        eps = factor * _per3_semi_cap(m)
        former = eps * np.sqrt(b_phi) < m.inf_mod * np.sqrt(b_phi)
        assert (eps < _per3_semi_cap(m)) == former == (factor < 1.0)


def _raises(call) -> str | None:
    try:
        call()
    except HypothesisViolated as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("generator", sorted(GENERATED_PAIRS))
def test_companions_admit_as_the_former_comparisons(generator):
    phi, psi, m, mult = _instance(generator)
    b_phi, inv_norm = phi.bounds[1], 1.0 / mult.inv_diag.sigma_min
    cases = (  # (cap, companion on a moved left frame, the former rejection of mu)
        (
            np.sqrt(phi.bounds[0]),
            lambda p: companion_per1(phi, psi, m, p),
            lambda mu: mu >= np.sqrt(phi.bounds[0]),
        ),
        (
            _per2_cap(phi, m, mult),
            lambda p: companion_per2(phi, psi, m, p, mult),
            lambda mu: mu * m.sup_mod >= 1.0 / (np.sqrt(b_phi) * inv_norm),
        ),
    )
    for factor in FACTORS:
        for cap, companion, former_rejects in cases:
            try:
                phi_prime = random_frame_perturbation(phi, factor * cap / 0.9, (419, 5))
            except NotAFrame:
                continue
            note = _raises(lambda: companion(phi_prime))
            rejected = note is not None and "reaches" in note
            assert rejected == former_rejects(op_norm(phi_prime.synth - phi.synth))
        # per3 moves one weight by eps; it is admitted when either former branch admits it.
        for eps in (factor * _per3_invertible_cap(phi, mult), factor * _per3_semi_cap(m)):
            values = m.values.copy()
            values[0] += eps
            m_prime = new_symbol(values)
            moved = float(np.max(np.abs(m.values - m_prime.values)))
            former = (moved * b_phi < mult.inv_diag.sigma_min) or (
                moved * np.sqrt(b_phi) < m.inf_mod * np.sqrt(b_phi)
            )
            note = _raises(lambda: companion_per3(phi, psi, m, m_prime, mult))
            assert (note is None) == former


# -------------------------------------------------------------- floor verdict


def test_floor_ok_is_a_python_bool_so_equal_rows_stay_shared():
    report = run_suite(ExperimentConfig(suite="per2", trials=8))
    rows = [r.booleans for r in report.records if r.booleans]
    assert len(rows) == 8 and all(type(row["floor_ok"]) is bool for row in rows)
    assert all(row is rows[0] for row in rows)  # every trial passed: one shared row
    assert _floor_ok(1.0, DEFAULT_TOL) is True
    assert _floor_ok(1.0 - 2 * REL, DEFAULT_TOL) is False


# ------------------------------------------------------- admission constants


def _suite_instances(monkeypatch, seed: int) -> list[tuple]:
    """(trial, symbol, multiplier) of each per2 trial; the odd per3 trials draw the same."""
    seen = _record_requests(monkeypatch, "per2", seed)
    assert len(seen) == 100
    return [(trial, m, mult) for trial, (_, _, _, m, mult) in enumerate(seen)]


# seed -> (per2 cap looser, per3 invertible branch looser on odd trials,
#          B_phi floor fails, B_psi floor fails); README "Admission constants".
RATES = {0: (42, 20, 1, 0), 1608: (53, 23, 0, 0)}


@pytest.mark.parametrize("seed", SEEDS)
def test_transcribed_constants_measured_rates(monkeypatch, seed):
    cap_looser = per3_looser = phi_floor_fails = psi_floor_fails = 0
    failing_trials = []
    for trial, m, mult in _suite_instances(monkeypatch, seed):
        phi, psi = mult.left, mult.right
        b_phi, b_psi = phi.bounds[1], psi.bounds[1]
        inv_norm = 1.0 / mult.inv_diag.sigma_min
        # Transcribed caps against the forms the proofs give (B_psi enters through M*).
        cap_looser += _per2_cap(phi, m, mult) > 1.0 / (np.sqrt(b_psi) * inv_norm * m.sup_mod)
        if trial % 2 == 1:
            proved = mult.inv_diag.sigma_min / np.sqrt(b_phi * b_psi)
            per3_looser += _per3_invertible_cap(phi, mult) > proved
        lo = scale_by_symbol(phi, m).bounds[0]
        if not _floor_ok(lo * b_phi * inv_norm**2, DEFAULT_TOL):
            phi_floor_fails += 1
            failing_trials.append(trial)
        psi_floor_fails += not _floor_ok(lo * b_psi * inv_norm**2, DEFAULT_TOL)
    assert (cap_looser, per3_looser, phi_floor_fails, psi_floor_fails) == RATES[seed]
    assert failing_trials == ([70] if seed == 0 else [])


def test_trial_70_stays_a_caught_hypothesis_violation():
    report = run_suite(ExperimentConfig(suite="per2", trials=71))
    record = report.records[70]
    assert record.verdict == "fail"
    assert record.note.startswith("HypothesisViolated: scaled-frame lower bound 3.191e-01")
