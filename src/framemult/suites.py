"""Seeded verification suites over batches of generated instances.

Each suite maps one family of claims onto a per-trial pass/fail/indeterminate
verdict. A trial is indeterminate when a decisive residual lands within the
near-threshold band where the equality policy cannot adjudicate; such trials
are counted separately and never fail a run.

Determinism: all randomness is drawn from generators seeded with
(base_seed, trial, stream) tuples, so a fixed config reproduces every
fixture, perturbation, sampled dual, and residual bit-for-bit.

A combined run executes trial-major: for each trial, every suite in turn.
The suites of one trial share the seeded fixtures they have in common (the
frame pair, the semi-normalized symbol, the invertible instances, the
(seed, trial, 5) W block and dual families, and the (seed, trial, 7) probe
direction), each built and validated once. A fixture is keyed by its own
call, (make, *args), so its key cannot leave out an argument. Records are
still reported suite by suite, in the same order and with the same bytes as
running the suites one after another.

A suite body returns only what it measured (N, residuals, booleans, whether
the claim held, whether the trial is indeterminate). _run_one builds every
record from that, or from the error the body raised, and applies the verdict.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, FrameMultError
from .frames import DualFrame, Frame, _dual_family, _read_only, canonical_dual, new_frame
from .generators import (
    finite_gabor,
    harmonic_tight,
    onb,
    random_frame,
    random_symbol,
    riesz_basis,
)
from .linalg import DEFAULT_TOL, Tol, herm_eig_extremes, op_norm
from .multiplier import Multiplier, _near_boundary, build, invert, thm1_report
from .perturbation import (
    companion_per1,
    companion_per1_dual_side,
    companion_per2,
    companion_per3,
    random_frame_perturbation,
)
from .representations import (
    DUAL_SAMPLE_COUNT,
    _decomposition_residuals,
    _formula_residuals,
    _unit_w,
    equivalence_criterion,
    gamma_of,
    theta_of,
)
from .symbols import Symbol, new_symbol, perturb_symbol

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SuiteReport",
    "run_suite",
    "validate_config",
    "SUITE_NAMES",
    "GENERATOR_NAMES",
    "DEFAULT_DIMS",
]

SUITE_NAMES = (
    "thm1",
    "per1",
    "per1dual",
    "per2",
    "per3",
    "gamma",
    "theta",
    "equivalence",
)
GENERATOR_NAMES = ("random", "harmonic", "gabor", "riesz", "onb")

# Default grid: N > d everywhere so symbols with a zero entry can still yield
# invertible multipliers (at N = d a single zero forces rank < d).
DEFAULT_DIMS = ((2, 5), (3, 7), (4, 9), (5, 11), (6, 13), (7, 15), (8, 17))

SYMBOL_LO, SYMBOL_HI = 0.5, 2.0
RESAMPLE_LIMIT = 20

# Residual keys that enter the aggregate max_residual (quantities a passing
# construction drives toward zero; diagnostics like achieved_mu stay out).
_AGG_KEYS = frozenset(
    {
        "direct",
        "cond_i",
        "cond_ii",
        "cond_iii",
        "cond_iv",
        "multiplier_residual",
        "annihilation",
        "masked_annihilation",
        "max_decomposition",
        "max_formula_residual",
    }
)


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    dims: tuple[tuple[int, int], ...] = DEFAULT_DIMS
    trials: int = 100
    seed: int = 0
    tol: Tol = DEFAULT_TOL
    generator: str = "random"
    format: str = "json"


@dataclass(frozen=True)
class TrialRecord:
    suite: str
    trial: int
    seed: int
    d: int
    n: int
    residuals: dict[str, float] = field(default_factory=dict)
    booleans: dict[str, bool] = field(default_factory=dict)
    indeterminate: bool = False
    verdict: str = "pass"
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trial": self.trial,
            "seed": self.seed,
            "d": self.d,
            "N": self.n,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "booleans": dict(self.booleans),
            "indeterminate": self.indeterminate,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    passed: int
    failed: int
    indeterminate: int
    max_residual: float
    wall_time_s: float

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": {
                "suite": self.config.suite,
                "dims": [list(pair) for pair in self.config.dims],
                "trials": self.config.trials,
                "seed": self.config.seed,
                "tol_rel": self.config.tol.rel_eq,
                "inv_cond": self.config.tol.inv_cond,
                "pinv_cutoff": self.config.tol.pinv_cutoff,
                "generator": self.config.generator,
                "format": self.config.format,
            },
            "aggregate": {
                "pass": self.passed,
                "fail": self.failed,
                "indeterminate": self.indeterminate,
                "max_residual": self.max_residual,
                "wall_time_s": self.wall_time_s,
            },
            "records": [record.as_dict() for record in self.records],
        }


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check cfg and return it with trials, seed and every dims entry as Python ints.

    Integers may be any numbers.Integral except bool (numpy integers too);
    normalizing them keeps the report's config block byte-identical.
    """
    if cfg.suite not in SUITE_NAMES and cfg.suite != "all":
        raise ConfigInvalid(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES + ('all',)}")
    if not _is_integer(cfg.trials) or cfg.trials < 1:
        raise ConfigInvalid(f"trials must be a positive integer, got {cfg.trials!r}")
    if not _is_integer(cfg.seed) or cfg.seed < 0:
        raise ConfigInvalid(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if not isinstance(cfg.dims, (tuple, list)) or not cfg.dims:
        raise ConfigInvalid("dims must list at least one (d, N) pair")
    for pair in cfg.dims:
        is_pair = isinstance(pair, (tuple, list)) and len(pair) == 2
        if not is_pair or not all(_is_integer(v) for v in pair):
            raise ConfigInvalid(f"malformed dims entry {pair!r}")
        d, n = pair
        if d < 1 or n < d:
            raise ConfigInvalid(f"dims entry ({d}, {n}) violates N >= d >= 1")
    if cfg.generator not in GENERATOR_NAMES:
        raise ConfigInvalid(f"unknown generator {cfg.generator!r}; choose from {GENERATOR_NAMES}")
    if cfg.format not in ("json", "csv"):
        raise ConfigInvalid(f"unknown format {cfg.format!r}; choose json or csv")
    if not isinstance(cfg.tol, Tol):
        raise ConfigInvalid(f"tol must be a Tol instance, got {type(cfg.tol).__name__}")
    dims = tuple((int(d), int(n)) for d, n in cfg.dims)
    return replace(cfg, trials=int(cfg.trials), seed=int(cfg.seed), dims=dims)


# ------------------------------------------------------------- trial fixtures

# Fixtures of the trial being run, shared by its suites (see run_suite). A
# fixture is keyed by its call, (make, *args), so a hit is the object a fresh
# call would give. A fixture that raises is not stored: each suite asking for
# it builds it again and records the same error.
_FIXTURES: dict[tuple, object] = {}


def _shared(make, *args):
    """make(*args), built at most once per trial."""
    key = (make, *args)
    if key not in _FIXTURES:
        _FIXTURES[key] = make(*args)
    return _FIXTURES[key]


_SEEDED_GENERATORS = ("random", "riesz")


def _frame_key(generator: str, d: int, n: int, seed: tuple, tol: Tol) -> tuple:
    """The arguments of a generated frame; the deterministic generators ignore the seed."""
    return (generator, d, n, seed if generator in _SEEDED_GENERATORS else None, tol)


def _make_frame(generator: str, d: int, n: int, seed: tuple | None, tol: Tol) -> Frame:
    if generator == "random":
        return random_frame(d, n, seed, tol=tol)
    if generator == "riesz":
        return riesz_basis(d, seed, tol=tol)
    if generator == "harmonic":
        return harmonic_tight(d, n)
    if generator == "gabor":
        return finite_gabor(d, 1, 1)  # fully oversampled lattice, N = d^2
    return onb(d)


def _frame(key: tuple) -> Frame:
    return _shared(_make_frame, *key)


def _pair_keys(cfg: ExperimentConfig, trial: int, d: int, n: int) -> tuple[tuple, tuple]:
    """The trial's left and right frame keys, streams 0 and 1; exotic generators override N."""
    return (
        _frame_key(cfg.generator, d, n, (cfg.seed, trial, 0), cfg.tol),
        _frame_key(cfg.generator, d, n, (cfg.seed, trial, 1), cfg.tol),
    )


def _semi_symbol(cfg: ExperimentConfig, trial: int, n: int) -> Symbol:
    return _shared(random_symbol, n, SYMBOL_LO, SYMBOL_HI, (cfg.seed, trial, 2))


def _with_zero(m: Symbol) -> Symbol:
    values = m.values.copy()
    values[0] = 0.0
    return new_symbol(values)


def _invertible_instance(
    cfg: ExperimentConfig,
    trial: int,
    phi_key: tuple,
    psi_key: tuple,
    zero_entry: bool,
) -> tuple[Symbol, Multiplier]:
    """The trial's invertible (symbol, multiplier) over the frames with these keys."""
    return _shared(_draw_invertible, (cfg.seed, trial), phi_key, psi_key, cfg.tol, zero_entry)


def _draw_invertible(
    seed_trial: tuple[int, int],
    phi_key: tuple,
    psi_key: tuple,
    tol: Tol,
    zero_entry: bool,
) -> tuple[Symbol, Multiplier]:
    """Redraw the symbol until the multiplier passes the invertibility proxy.

    A zero-entry symbol has N - 1 nonzero entries, which bound the rank of M:
    when N - 1 < d no draw can succeed, so none is tried.
    """
    phi, psi = _frame(phi_key), _frame(psi_key)
    rank_deficient = zero_entry and phi.count - 1 < phi.dim
    for attempt in range(0 if rank_deficient else RESAMPLE_LIMIT):
        m = random_symbol(phi.count, SYMBOL_LO, SYMBOL_HI, (*seed_trial, 2, attempt))
        if zero_entry:
            m = _with_zero(m)
        mult = build(m, phi, psi, tol)
        if mult.inv_diag.invertible:
            return m, mult
    raise FrameMultError(
        f"no invertible multiplier in {RESAMPLE_LIMIT} symbol draws (trial {seed_trial[1]})"
    )


def _draw_w(seed: tuple, d: int, n: int) -> np.ndarray:
    return _unit_w(np.random.default_rng(seed), DUAL_SAMPLE_COUNT, d, n)


def _sample_duals(frame_key: tuple, seed: tuple, tol: Tol) -> list[DualFrame]:
    """What sample_duals gives the keyed frame under default_rng(seed).

    The suites pass the (seed, trial, 5) stream. Its W block depends only on the
    stream and the shape, so both frames of a trial share it.
    """
    f = _frame(frame_key)
    w = _shared(_draw_w, seed, f.dim, f.count)
    return [canonical_dual(f, tol), *_dual_family(f, w, tol)]


def _verdict(ok: bool, indeterminate: bool) -> str:
    if indeterminate:
        return "indeterminate"
    return "pass" if ok else "fail"


# ---------------------------------------------------------------- suite bodies


class _Measured(NamedTuple):
    """What a suite body measured on one trial; _run_one wraps it in a TrialRecord."""

    n: int
    residuals: dict[str, float]
    booleans: dict[str, bool]
    ok: bool
    indeterminate: bool = False


def _trial_thm1(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    m, mult = _invertible_instance(cfg, trial, *_pair_keys(cfg, trial, d, n), zero_entry=False)
    rep = thm1_report(mult, cfg.tol)
    residuals = {
        "direct": rep.direct_residual,
        "cond_i": rep.cond_i.residual,
        "cond_ii": rep.cond_ii.residual,
        "cond_iii": rep.cond_iii.residual,
        "cond_iv": rep.cond_iv.residual,
    }
    booleans = {
        "direct_equal": rep.direct_equal,
        "cond_i": rep.cond_i.holds,
        "cond_ii": rep.cond_ii.holds,
        "cond_iii": rep.cond_iii.holds,
        "cond_iv": rep.cond_iv.holds,
        "consistent": rep.consistent,
    }
    return _Measured(mult.left.count, residuals, booleans, rep.consistent, rep.indeterminate)


def _companion_fields(report, tol: Tol) -> tuple[dict[str, float], dict[str, bool]]:
    """The residuals and booleans every companion trial records."""
    residuals = {
        "achieved_mu": report.achieved_mu,
        "bound_coefficient": report.bound_coefficient,
        "companion_deviation": report.companion_deviation,
        "multiplier_residual": report.multiplier_residual,
    }
    invariance_ok = report.multiplier_residual <= tol.rel_eq * report.scale
    return residuals, {"invariance_ok": invariance_ok, "bound_satisfied": report.bound_satisfied}


def _trial_per1_side(side: str, cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    """per1 perturbs the left frame, per1dual the right one (the adjoint's left frame)."""
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    phi, psi = _frame(phi_key), _frame(psi_key)
    m = _semi_symbol(cfg, trial, phi.count)
    moved, companion = (phi, companion_per1) if side == "per1" else (psi, companion_per1_dual_side)
    mu_request = 0.5 * np.sqrt(moved.bounds[0])
    moved_prime = random_frame_perturbation(moved, mu_request, (cfg.seed, trial, 3), cfg.tol)
    _, report = companion(phi, psi, m, moved_prime, cfg.tol)
    residuals, booleans = _companion_fields(report, cfg.tol)
    return _Measured(phi.count, residuals, booleans, all(booleans.values()))


def _trial_per2(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    m, mult = _invertible_instance(cfg, trial, *_pair_keys(cfg, trial, d, n), zero_entry=True)
    phi, psi = mult.left, mult.right
    inv_norm = 1.0 / mult.inv_diag.sigma_min
    mu_request = min(
        0.9 / (np.sqrt(phi.bounds[1]) * inv_norm * m.sup_mod),
        np.sqrt(phi.bounds[0]),
    )
    phi_prime = random_frame_perturbation(phi, mu_request, (cfg.seed, trial, 3), cfg.tol)
    _, report = companion_per2(phi, psi, m, phi_prime, mult, cfg.tol)
    scaled = phi.synth * m.values[np.newaxis, :]
    lo, _ = herm_eig_extremes(scaled @ scaled.conj().T, cfg.tol)
    floor_ratio = lo * phi.bounds[1] * inv_norm**2
    residuals, booleans = _companion_fields(report, cfg.tol)
    residuals["floor_ratio"] = float(floor_ratio)
    booleans["floor_ok"] = floor_ratio >= 1.0 - cfg.tol.rel_eq
    ok = booleans["invariance_ok"] and booleans["floor_ok"]
    return _Measured(phi.count, residuals, booleans, ok)


def _trial_per3(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    phi, psi = _frame(phi_key), _frame(psi_key)
    semi_branch = trial % 2 == 0
    if semi_branch:
        m = _semi_symbol(cfg, trial, phi.count)
        mult = build(m, phi, psi, cfg.tol)
        eps = 0.5 * m.inf_mod
    else:
        m, mult = _invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=True)
        eps = 0.45 * mult.inv_diag.sigma_min / phi.bounds[1]
    m_prime = perturb_symbol(m, eps, (cfg.seed, trial, 4))
    _, report = companion_per3(phi, psi, m, m_prime, mult, cfg.tol)
    residuals, booleans = _companion_fields(report, cfg.tol)
    booleans["semi_branch"] = semi_branch
    return _Measured(phi.count, residuals, booleans, booleans["invariance_ok"])


def _probe_direction(shape: tuple[int, int], rng_seed) -> np.ndarray:
    rng = np.random.default_rng(rng_seed)
    direction = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return _read_only(direction / op_norm(direction))


def _trial_correction(side: str, cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    """Gamma against duals of the left frame, or Theta against duals of the right frame."""
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    m, mult = _invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=False)
    tol = cfg.tol
    rep_of, dual_key = (gamma_of, phi_key) if side == "gamma" else (theta_of, psi_key)
    rep = rep_of(mult, tol)
    direction = _shared(_probe_direction, rep.op.shape, (cfg.seed, trial, 7))
    probe = rep.op + direction * (1e3 * tol.rel_eq)
    duals = _shared(_sample_duals, dual_key, (cfg.seed, trial, 5), tol)
    decomposition, probed = _decomposition_residuals(mult, rep.kind, [rep.op, probe], duals, tol)
    scale = max(1.0, op_norm(invert(mult, tol)))
    max_dec = max(r for _, r in decomposition)
    breakage = max(r for _, r in probed)
    booleans = {
        "decomposition_ok": max_dec <= tol.rel_eq * scale,
        "annihilation_ok": rep.annihilation_residual <= tol.rel_eq * scale,
        "masked_annihilation_ok": rep.masked_annihilation_residual <= tol.rel_eq * scale,
        "uniqueness_ok": breakage >= 1e2 * tol.rel_eq,
    }
    ok = booleans["decomposition_ok"] and booleans["annihilation_ok"] and booleans["uniqueness_ok"]
    residuals = {
        "op_norm": op_norm(rep.op),
        "annihilation": rep.annihilation_residual,
        "masked_annihilation": rep.masked_annihilation_residual,
        "max_decomposition": max_dec,
        "probe_breakage": breakage,
    }
    return _Measured(mult.left.count, residuals, booleans, ok)


def _trial_equivalence(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    phi, _ = _frame(phi_key), _frame(psi_key)  # a failed right frame fails this trial too
    tol = cfg.tol
    positive = trial % 2 == 0
    if positive:
        m = _semi_symbol(cfg, trial, phi.count)
        v = riesz_basis(d, (cfg.seed, trial, 6), tol=tol)
        psi = new_frame(v.synth @ (phi.synth * m.values[np.newaxis, :]), tol)
        mult = build(m, phi, psi, tol)
    else:
        psi_key = _frame_key("random", d, phi.count, (cfg.seed, trial, 1), tol)
        m, mult = _invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=False)
    verdict3 = equivalence_criterion(mult, tol)
    minv = invert(mult, tol)
    scale = max(1.0, op_norm(minv))
    gamma_norm = op_norm(gamma_of(mult, tol).op)
    duals = _shared(_sample_duals, phi_key, (cfg.seed, trial, 5), tol)
    max_formula = float(_formula_residuals(mult, minv, duals, tol).max())

    agree = verdict3.equivalent == verdict3.gamma_zero == verdict3.all_duals_formula
    indeterminate = _near_boundary(gamma_norm / scale, tol) or _near_boundary(
        max_formula / scale, tol
    )
    booleans = {
        "equivalent": verdict3.equivalent,
        "gamma_zero": verdict3.gamma_zero,
        "all_duals_formula": verdict3.all_duals_formula,
        "agree": agree,
        "expected_positive": positive,
    }
    residuals = {"gamma_norm": gamma_norm, "max_formula_residual": max_formula}
    return _Measured(phi.count, residuals, booleans, agree, indeterminate)


_TRIAL_BODIES = {
    "thm1": _trial_thm1,
    "per1": partial(_trial_per1_side, "per1"),
    "per1dual": partial(_trial_per1_side, "per1dual"),
    "per2": _trial_per2,
    "per3": _trial_per3,
    "gamma": partial(_trial_correction, "gamma"),
    "theta": partial(_trial_correction, "theta"),
    "equivalence": _trial_equivalence,
}


# Errors that fail the one trial raising them: the package's own, plus the
# numerical ones numpy raises (LinAlgError is a ValueError).
_TRIAL_ERRORS = (FrameMultError, ValueError, ArithmeticError)


def _run_one(name: str, cfg: ExperimentConfig, trial: int) -> TrialRecord:
    """The record of one suite on one trial: what its body measured, or the error it raised."""
    d, n = cfg.dims[trial % len(cfg.dims)]
    note = ""
    try:
        got = _TRIAL_BODIES[name](cfg, trial, d, n)
    except _TRIAL_ERRORS as exc:
        got, note = _Measured(n, {}, {}, ok=False), f"{type(exc).__name__}: {exc}"
    return TrialRecord(
        suite=name,
        trial=trial,
        seed=cfg.seed,
        d=d,
        n=got.n,
        residuals=got.residuals,
        booleans=got.booleans,
        indeterminate=got.indeterminate,
        verdict=_verdict(got.ok, got.indeterminate),
        note=note,
    )


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Run the configured suite (or all of them) and aggregate the records.

    Trials run one at a time, each through every suite, so the suites of a
    trial share its fixtures; the records are reported suite by suite.
    """
    cfg = validate_config(cfg)
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    start = time.perf_counter()
    by_suite: dict[str, list[TrialRecord]] = {name: [] for name in names}
    try:
        for trial in range(cfg.trials):
            _FIXTURES.clear()
            for name in names:
                by_suite[name].append(_run_one(name, cfg, trial))
    finally:
        _FIXTURES.clear()
    records = [record for name in names for record in by_suite[name]]
    wall = time.perf_counter() - start
    passed = sum(1 for r in records if r.verdict == "pass")
    failed = sum(1 for r in records if r.verdict == "fail")
    indet = sum(1 for r in records if r.verdict == "indeterminate")
    max_residual = 0.0
    for record in records:
        for key, value in record.residuals.items():
            if key in _AGG_KEYS:
                max_residual = max(max_residual, float(value))
    return SuiteReport(
        suite=cfg.suite,
        config=cfg,
        records=tuple(records),
        passed=passed,
        failed=failed,
        indeterminate=indet,
        max_residual=max_residual,
        wall_time_s=wall,
    )
