"""Seeded verification suites over batches of generated instances.

Each suite maps one family of claims onto a per-trial pass/fail/indeterminate
verdict. A trial is indeterminate when a decisive residual lands within the
near-threshold band where the equality policy cannot adjudicate; such trials
are counted separately and never fail a run.

Determinism: all randomness is drawn from generators seeded with
(base_seed, trial, stream) tuples, so a fixed config reproduces every
fixture, perturbation, sampled dual, and residual bit-for-bit.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigInvalid, FrameMultError
from .frames import Frame, new_frame
from .generators import (
    finite_gabor,
    harmonic_tight,
    onb,
    random_frame,
    random_symbol,
    riesz_basis,
)
from .linalg import DEFAULT_TOL, Tol, herm_eig_extremes, op_norm
from .multiplier import BOUNDARY_FACTOR, Multiplier, build, invert, thm1_report
from .perturbation import (
    companion_per1,
    companion_per1_dual_side,
    companion_per2,
    companion_per3,
    random_frame_perturbation,
)
from .representations import (
    _formula_residuals,
    equivalence_criterion,
    gamma_of,
    sample_duals,
    theta_of,
    verify_gamma_decomposition,
    verify_theta_decomposition,
)
from .symbols import Symbol, new_symbol, perturb_symbol

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SuiteReport",
    "run_suite",
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
    output_path: str | None = None
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
    """Check cfg and return it with trials and every dims entry as Python ints.

    Integers may be any numbers.Integral except bool (numpy integers too);
    normalizing them keeps the report's config block byte-identical.
    """
    if cfg.suite not in SUITE_NAMES and cfg.suite != "all":
        raise ConfigInvalid(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES + ('all',)}")
    if not _is_integer(cfg.trials) or cfg.trials < 1:
        raise ConfigInvalid(f"trials must be a positive integer, got {cfg.trials!r}")
    if not cfg.dims:
        raise ConfigInvalid("dims must list at least one (d, N) pair")
    for pair in cfg.dims:
        if len(pair) != 2 or not all(_is_integer(v) for v in pair):
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
    return replace(cfg, trials=int(cfg.trials), dims=tuple((int(d), int(n)) for d, n in cfg.dims))


def _frame_pair(cfg: ExperimentConfig, trial: int, d: int, n: int) -> tuple[Frame, Frame]:
    """Left and right frames for one trial; exotic generators override N."""
    if cfg.generator == "random":
        return (
            random_frame(d, n, (cfg.seed, trial, 0), tol=cfg.tol),
            random_frame(d, n, (cfg.seed, trial, 1), tol=cfg.tol),
        )
    if cfg.generator == "harmonic":
        f = harmonic_tight(d, n)
        return f, f
    if cfg.generator == "gabor":
        f = finite_gabor(d, 1, 1)  # fully oversampled lattice, N = d^2
        return f, f
    if cfg.generator == "riesz":
        return (
            riesz_basis(d, (cfg.seed, trial, 0), tol=cfg.tol),
            riesz_basis(d, (cfg.seed, trial, 1), tol=cfg.tol),
        )
    f = onb(d)
    return f, f


def _semi_symbol(cfg: ExperimentConfig, trial: int, n: int, stream: int = 2) -> Symbol:
    return random_symbol(n, SYMBOL_LO, SYMBOL_HI, (cfg.seed, trial, stream))


def _with_zero(m: Symbol) -> Symbol:
    values = m.values.copy()
    values[0] = 0.0
    return new_symbol(values)


def _invertible_instance(
    cfg: ExperimentConfig,
    trial: int,
    phi: Frame,
    psi: Frame,
    zero_entry: bool,
) -> tuple[Symbol, Multiplier]:
    """Redraw the symbol until the multiplier passes the invertibility proxy."""
    for attempt in range(RESAMPLE_LIMIT):
        m = random_symbol(phi.count, SYMBOL_LO, SYMBOL_HI, (cfg.seed, trial, 2, attempt))
        if zero_entry:
            m = _with_zero(m)
        mult = build(m, phi, psi, cfg.tol)
        if mult.inv_diag.invertible:
            return m, mult
    raise FrameMultError(
        f"no invertible multiplier in {RESAMPLE_LIMIT} symbol draws (trial {trial})"
    )


def _banded(value: float, tol: Tol) -> bool:
    return tol.rel_eq < value <= BOUNDARY_FACTOR * tol.rel_eq


def _verdict(ok: bool, indeterminate: bool) -> str:
    if indeterminate:
        return "indeterminate"
    return "pass" if ok else "fail"


# ---------------------------------------------------------------- suite bodies


def _trial_thm1(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    m, mult = _invertible_instance(cfg, trial, phi, psi, zero_entry=False)
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
    return TrialRecord(
        suite="thm1",
        trial=trial,
        seed=cfg.seed,
        d=d,
        n=phi.count,
        residuals=residuals,
        booleans=booleans,
        indeterminate=rep.indeterminate,
        verdict=_verdict(rep.consistent, rep.indeterminate),
    )


def _companion_record(
    suite: str,
    cfg: ExperimentConfig,
    trial: int,
    d: int,
    n: int,
    report,
    extra_residuals: dict[str, float] | None = None,
    extra_booleans: dict[str, bool] | None = None,
    require: tuple[str, ...] = ("invariance_ok", "bound_satisfied"),
) -> TrialRecord:
    invariance_ok = report.multiplier_residual <= cfg.tol.rel_eq * report.scale
    residuals = {
        "achieved_mu": report.achieved_mu,
        "bound_coefficient": report.bound_coefficient,
        "companion_deviation": report.companion_deviation,
        "multiplier_residual": report.multiplier_residual,
    }
    booleans = {"invariance_ok": invariance_ok, "bound_satisfied": report.bound_satisfied}
    if extra_residuals:
        residuals.update(extra_residuals)
    if extra_booleans:
        booleans.update(extra_booleans)
    ok = all(booleans[name] for name in require)
    return TrialRecord(
        suite=suite,
        trial=trial,
        seed=cfg.seed,
        d=d,
        n=n,
        residuals=residuals,
        booleans=booleans,
        verdict=_verdict(ok, False),
    )


def _trial_per1(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    m = _semi_symbol(cfg, trial, phi.count)
    mu_request = 0.5 * np.sqrt(phi.bounds[0])
    phi_prime = random_frame_perturbation(phi, mu_request, (cfg.seed, trial, 3), cfg.tol)
    _, report = companion_per1(phi, psi, m, phi_prime, cfg.tol)
    return _companion_record("per1", cfg, trial, d, phi.count, report)


def _trial_per1dual(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    m = _semi_symbol(cfg, trial, phi.count)
    mu_request = 0.5 * np.sqrt(psi.bounds[0])
    psi_prime = random_frame_perturbation(psi, mu_request, (cfg.seed, trial, 3), cfg.tol)
    _, report = companion_per1_dual_side(phi, psi, m, psi_prime, cfg.tol)
    return _companion_record("per1dual", cfg, trial, d, phi.count, report)


def _trial_per2(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    m, mult = _invertible_instance(cfg, trial, phi, psi, zero_entry=True)
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
    return _companion_record(
        "per2",
        cfg,
        trial,
        d,
        phi.count,
        report,
        extra_residuals={"floor_ratio": float(floor_ratio)},
        extra_booleans={"floor_ok": floor_ratio >= 1.0 - cfg.tol.rel_eq},
        require=("invariance_ok", "floor_ok"),
    )


def _trial_per3(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    semi_branch = trial % 2 == 0
    if semi_branch:
        m = _semi_symbol(cfg, trial, phi.count)
        mult = build(m, phi, psi, cfg.tol)
        eps = 0.5 * m.inf_mod
    else:
        m, mult = _invertible_instance(cfg, trial, phi, psi, zero_entry=True)
        eps = 0.45 * mult.inv_diag.sigma_min / phi.bounds[1]
    m_prime = perturb_symbol(m, eps, (cfg.seed, trial, 4))
    _, report = companion_per3(phi, psi, m, m_prime, mult, cfg.tol)
    return _companion_record(
        "per3",
        cfg,
        trial,
        d,
        phi.count,
        report,
        extra_booleans={"semi_branch": semi_branch},
        require=("invariance_ok",),
    )


def _probe_direction(shape: tuple[int, int], rng_seed) -> np.ndarray:
    rng = np.random.default_rng(rng_seed)
    direction = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return direction / op_norm(direction)


def _trial_gamma(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    m, mult = _invertible_instance(cfg, trial, phi, psi, zero_entry=False)
    tol = cfg.tol
    g = gamma_of(mult, tol)
    duals = sample_duals(phi, rng=np.random.default_rng((cfg.seed, trial, 5)), tol=tol)
    g = verify_gamma_decomposition(mult, g, duals, tol)
    scale = max(1.0, op_norm(invert(mult, tol)))
    max_dec = max(r for _, r in g.decomposition_residuals)
    probe = replace(
        g,
        op=g.op + _probe_direction(g.op.shape, (cfg.seed, trial, 7)) * (1e3 * tol.rel_eq),
    )
    probe = verify_gamma_decomposition(mult, probe, duals, tol)
    breakage = max(r for _, r in probe.decomposition_residuals)
    booleans = {
        "decomposition_ok": max_dec <= tol.rel_eq * scale,
        "annihilation_ok": g.annihilation_residual <= tol.rel_eq * scale,
        "masked_annihilation_ok": g.masked_annihilation_residual <= tol.rel_eq * scale,
        "uniqueness_ok": breakage >= 1e2 * tol.rel_eq,
    }
    ok = booleans["decomposition_ok"] and booleans["annihilation_ok"] and booleans["uniqueness_ok"]
    return TrialRecord(
        suite="gamma",
        trial=trial,
        seed=cfg.seed,
        d=d,
        n=phi.count,
        residuals={
            "op_norm": op_norm(g.op),
            "annihilation": g.annihilation_residual,
            "masked_annihilation": g.masked_annihilation_residual,
            "max_decomposition": max_dec,
            "probe_breakage": breakage,
        },
        booleans=booleans,
        verdict=_verdict(ok, False),
    )


def _trial_theta(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, psi = _frame_pair(cfg, trial, d, n)
    m, mult = _invertible_instance(cfg, trial, phi, psi, zero_entry=False)
    tol = cfg.tol
    t = theta_of(mult, tol)
    duals = sample_duals(psi, rng=np.random.default_rng((cfg.seed, trial, 5)), tol=tol)
    t = verify_theta_decomposition(mult, t, duals, tol)
    scale = max(1.0, op_norm(invert(mult, tol)))
    max_dec = max(r for _, r in t.decomposition_residuals)
    probe = replace(
        t,
        op=t.op + _probe_direction(t.op.shape, (cfg.seed, trial, 7)) * (1e3 * tol.rel_eq),
    )
    probe = verify_theta_decomposition(mult, probe, duals, tol)
    breakage = max(r for _, r in probe.decomposition_residuals)
    booleans = {
        "decomposition_ok": max_dec <= tol.rel_eq * scale,
        "annihilation_ok": t.annihilation_residual <= tol.rel_eq * scale,
        "masked_annihilation_ok": t.masked_annihilation_residual <= tol.rel_eq * scale,
        "uniqueness_ok": breakage >= 1e2 * tol.rel_eq,
    }
    ok = booleans["decomposition_ok"] and booleans["annihilation_ok"] and booleans["uniqueness_ok"]
    return TrialRecord(
        suite="theta",
        trial=trial,
        seed=cfg.seed,
        d=d,
        n=phi.count,
        residuals={
            "op_norm": op_norm(t.op),
            "annihilation": t.annihilation_residual,
            "masked_annihilation": t.masked_annihilation_residual,
            "max_decomposition": max_dec,
            "probe_breakage": breakage,
        },
        booleans=booleans,
        verdict=_verdict(ok, False),
    )


def _trial_equivalence(cfg: ExperimentConfig, trial: int, d: int, n: int) -> TrialRecord:
    phi, _ = _frame_pair(cfg, trial, d, n)
    tol = cfg.tol
    positive = trial % 2 == 0
    if positive:
        m = _semi_symbol(cfg, trial, phi.count)
        v = riesz_basis(d, (cfg.seed, trial, 6), tol=tol)
        psi = new_frame(v.synth @ (phi.synth * m.values[np.newaxis, :]), tol)
        mult = build(m, phi, psi, tol)
    else:
        psi = random_frame(d, phi.count, (cfg.seed, trial, 1), tol=tol)
        m, mult = _invertible_instance(cfg, trial, phi, psi, zero_entry=False)
    verdict3 = equivalence_criterion(mult, tol)
    minv = invert(mult, tol)
    scale = max(1.0, op_norm(minv))
    gamma_norm = op_norm(gamma_of(mult, tol).op)

    rng = np.random.default_rng((cfg.seed, trial, 5))
    max_formula = float(_formula_residuals(mult, minv, rng, tol).max())

    agree = verdict3.equivalent == verdict3.gamma_zero == verdict3.all_duals_formula
    indeterminate = _banded(gamma_norm / scale, tol) or _banded(max_formula / scale, tol)
    return TrialRecord(
        suite="equivalence",
        trial=trial,
        seed=cfg.seed,
        d=d,
        n=phi.count,
        residuals={"gamma_norm": gamma_norm, "max_formula_residual": max_formula},
        booleans={
            "equivalent": verdict3.equivalent,
            "gamma_zero": verdict3.gamma_zero,
            "all_duals_formula": verdict3.all_duals_formula,
            "agree": agree,
            "expected_positive": positive,
        },
        indeterminate=indeterminate,
        verdict=_verdict(agree, indeterminate),
    )


_TRIAL_BODIES = {
    "thm1": _trial_thm1,
    "per1": _trial_per1,
    "per1dual": _trial_per1dual,
    "per2": _trial_per2,
    "per3": _trial_per3,
    "gamma": _trial_gamma,
    "theta": _trial_theta,
    "equivalence": _trial_equivalence,
}


# Errors that fail the one trial raising them: the package's own, plus the
# numerical ones numpy raises (LinAlgError is a ValueError).
_TRIAL_ERRORS = (FrameMultError, ValueError, ArithmeticError)


def _run_one(name: str, cfg: ExperimentConfig, trial: int) -> TrialRecord:
    d, n = cfg.dims[trial % len(cfg.dims)]
    try:
        return _TRIAL_BODIES[name](cfg, trial, d, n)
    except _TRIAL_ERRORS as exc:
        return TrialRecord(
            suite=name,
            trial=trial,
            seed=cfg.seed,
            d=d,
            n=n,
            verdict="fail",
            note=f"{type(exc).__name__}: {exc}",
        )


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Run the configured suite (or all of them) and aggregate the records."""
    cfg = validate_config(cfg)
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    start = time.perf_counter()
    records: list[TrialRecord] = []
    for name in names:
        for trial in range(cfg.trials):
            records.append(_run_one(name, cfg, trial))
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
