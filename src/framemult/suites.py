"""Seeded verification suites over batches of generated instances.

Each suite maps one family of claims onto a per-trial pass/fail/indeterminate
verdict. A trial is indeterminate when a decisive residual lands within the
near-threshold band where the equality policy cannot adjudicate; such trials
are counted separately and never fail a run.

One table, _SUITES, lists the suites in run order: each one's trial body
and its residual keys in record order, marking those that enter
max_residual. SUITE_NAMES, the bodies _run_one calls, max_residual's keys
and the CSV's RESIDUAL_COLUMNS are derived from it, and each body pairs its
values with its row's keys, so no residual key is written anywhere else.
Records are made and checked here; serialize imports from this module, never
the other way.

Determinism: all randomness is drawn from generators seeded with
(base_seed, trial, stream) tuples, so a fixed config reproduces every
fixture, perturbation and residual bit-for-bit.

The claims quantified over every dual (the gamma and theta decompositions
and the equivalence suite's all_duals_formula) sample no duals: each reads
representations._certificate, whose bound ||R0|| + ||K|| holds for every
dual, and the uniqueness probe reads max(||R0||, ||K||), which some dual
reaches. The theta suite is the gamma suite on the adjoint multiplier.

A combined run executes trial-major: for each trial, every suite in turn.
The suites of one trial share the seeded fixtures they have in common (the
frame pair, the semi-normalized symbol, the invertible instances, the
(seed, trial, 3) noise and the (seed, trial, 7) probe direction), each
built and validated once. Each run keeps these in a memo of its own.
A fixture is keyed by its own call, (make, *args), so its key cannot leave
out an argument. Records are still reported suite by suite, in the same
order and with the same bytes as running the suites one after another.

A suite body returns only what it measured (N, residuals, booleans, whether
the claim held, whether the trial is indeterminate). _run_one adds that, or
the error the body raised, to its suite's columns and applies the verdict.
Every column is fixed-width: the residual values go into one float64 array;
N and the (residual keys, booleans row) pair are each a one-byte index into
entries stored once per run (_Shared), with every key tuple from one intern
table and equal booleans rows one object; the verdict is a one-byte code,
and indeterminate is read from it; only a trial that caught an error keeps
a note. The report keeps the columns: its tally and max_residual are read
from them, and its records are a read-only sequence view (_Records) that
builds each record when it is read, holding the residuals and booleans as
read-only rows, each residual a Python float.
"""

from __future__ import annotations

import numbers
import time
from array import array
from collections.abc import Mapping, Sequence
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigInvalid, FrameMultError, InvalidArgument
from .frames import Frame, _weighted_image
from .generators import (
    finite_gabor,
    harmonic_tight,
    onb,
    random_frame,
    random_symbol,
    riesz_basis,
)
from .linalg import DEFAULT_TOL, Tol, _is_integer, _near_boundary, _rel_gap
from .multiplier import Multiplier, _inverse_norm, adjoint, build, thm1_report
from .perturbation import (
    _companion_per2,
    _floor_ok,
    _noise,
    _per1_cap,
    _per2_cap,
    _per3_invertible_cap,
    _per3_semi_cap,
    _perturbed,
    companion_per1,
    companion_per1_dual_side,
    companion_per3,
)
from .representations import _certificate, _equivalence, _unit_w, gamma_of
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

GENERATOR_NAMES = ("random", "harmonic", "gabor", "riesz", "onb")

# Default grid: N > d everywhere so symbols with a zero entry can still yield
# invertible multipliers (at N = d a single zero forces rank < d).
DEFAULT_DIMS = ((2, 5), (3, 7), (4, 9), (5, 11), (6, 13), (7, 15), (8, 17))

SYMBOL_LO, SYMBOL_HI = 0.5, 2.0
RESAMPLE_LIMIT = 20


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    dims: tuple[tuple[int, int], ...] = DEFAULT_DIMS
    trials: int = 100
    seed: int = 0
    tol: Tol = DEFAULT_TOL
    generator: str = "random"
    format: str = "json"


@dataclass(frozen=True, slots=True)
class TrialRecord:
    suite: str
    trial: int
    seed: int
    d: int
    n: int
    residuals: Mapping[str, float] = field(default_factory=dict)
    booleans: Mapping[str, bool] = field(default_factory=dict)
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
            "booleans": dict(self.booleans.items()),
            "indeterminate": self.indeterminate,
            "verdict": self.verdict,
            "note": self.note,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: ExperimentConfig
    records: Sequence[TrialRecord]
    passed: int
    failed: int
    indeterminate: int
    max_residual: float
    wall_time_s: float

    def as_dict(self) -> dict:
        return {**self._header(), "records": [record.as_dict() for record in self.records]}

    def _header(self) -> dict:
        """as_dict without its records; the JSON writer encodes those one at a time."""
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
        }


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
    dims = tuple([(int(d), int(n)) for d, n in cfg.dims])  # exact size, see _row
    return replace(cfg, trials=int(cfg.trials), seed=int(cfg.seed), dims=dims)


# ------------------------------------------------------------- trial fixtures

# The memo of the trial being run, shared by its suites. Each run_suite call
# sets its own, so runs in concurrent threads never share one; a suite body
# called outside a run finds none and raises LookupError. A fixture is keyed
# by its call, (make, *args), so a hit is the object a fresh call would give.
# A fixture that raises is not stored: each suite asking for it builds it
# again and records the same error.
_MEMO: ContextVar[dict] = ContextVar("framemult.suites.memo")


def _shared(make, *args):
    """make(*args), built at most once per trial."""
    memo = _MEMO.get()
    key = (make, *args)
    if key not in memo:
        memo[key] = make(*args)
    return memo[key]


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


def _residuals(suite: str, *values: float) -> dict[str, float]:
    """The suite's residual dict: the keys of its _SUITES row, in order, paired with values."""
    # A comprehension, not dict(zip()): dict() of an iterator grows its table as it goes,
    # so a run's traced peak reads about 4 KiB higher.
    return {key: value for key, value in zip(_SUITES[suite][1], values, strict=True)}


def _trial_thm1(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    m, mult = _invertible_instance(cfg, trial, *_pair_keys(cfg, trial, d, n), zero_entry=False)
    rep = thm1_report(mult, cfg.tol)
    conditions = (rep.cond_i, rep.cond_ii, rep.cond_iii, rep.cond_iv)
    residuals = _residuals("thm1", rep.direct_residual, *[c.residual for c in conditions])
    _, i, ii, iii, iv = residuals  # each condition's boolean has the key of its residual
    booleans = {
        "direct_equal": rep.direct_equal,
        i: rep.cond_i.holds,
        ii: rep.cond_ii.holds,
        iii: rep.cond_iii.holds,
        iv: rep.cond_iv.holds,
        "consistent": rep.consistent,
    }
    return _Measured(mult.left.count, residuals, booleans, rep.consistent, rep.indeterminate)


def _companion_fields(report, tol: Tol) -> tuple[list[float], dict[str, bool]]:
    """The residual values and the booleans every companion trial records.

    The values are the PerturbReport fields that _COMPANION names, in its order.
    """
    values = [getattr(report, key) for key in _COMPANION]
    invariance_ok = _rel_gap(report.multiplier_residual, report.scale) <= tol.rel_eq
    return values, {"invariance_ok": invariance_ok, "bound_satisfied": report.bound_satisfied}


def _trial_per1_side(side: str, cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    """per1 perturbs the left frame, per1dual the right one (the adjoint's left frame)."""
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    phi, psi = _frame(phi_key), _frame(psi_key)
    m = _semi_symbol(cfg, trial, phi.count)
    moved, companion = (phi, companion_per1) if side == "per1" else (psi, companion_per1_dual_side)
    mu_request = _per1_cap(moved, 0.5)
    noise = _shared(_noise, (cfg.seed, trial, 3), moved.dim, moved.count)  # shared with per2
    moved_prime = _perturbed(moved, mu_request, noise, cfg.tol)
    _, report = companion(phi, psi, m, moved_prime, cfg.tol)
    values, booleans = _companion_fields(report, cfg.tol)
    return _Measured(phi.count, _residuals(side, *values), booleans, all(booleans.values()))


def _trial_per2(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    m, mult = _invertible_instance(cfg, trial, *_pair_keys(cfg, trial, d, n), zero_entry=True)
    phi, psi = mult.left, mult.right
    mu_request = min(_per2_cap(phi, m, mult, 0.9), _per1_cap(phi))
    noise = _shared(_noise, (cfg.seed, trial, 3), phi.dim, phi.count)
    phi_prime = _perturbed(phi, mu_request, noise, cfg.tol)
    _, report, floor_ratio = _companion_per2(phi, psi, m, phi_prime, mult, cfg.tol)
    values, booleans = _companion_fields(report, cfg.tol)
    booleans["floor_ok"] = _floor_ok(floor_ratio, cfg.tol)
    ok = booleans["invariance_ok"] and booleans["floor_ok"]
    return _Measured(phi.count, _residuals("per2", *values, float(floor_ratio)), booleans, ok)


def _trial_per3(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    phi, psi = _frame(phi_key), _frame(psi_key)
    semi_branch = trial % 2 == 0
    if semi_branch:
        m = _semi_symbol(cfg, trial, phi.count)
        mult = build(m, phi, psi, cfg.tol)
        eps = _per3_semi_cap(m, 0.5)
    else:
        m, mult = _invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=True)
        eps = _per3_invertible_cap(phi, mult, 0.45)
    m_prime = perturb_symbol(m, eps, (cfg.seed, trial, 4))
    _, report = companion_per3(phi, psi, m, m_prime, mult, cfg.tol)
    values, booleans = _companion_fields(report, cfg.tol)
    booleans["semi_branch"] = semi_branch
    return _Measured(phi.count, _residuals("per3", *values), booleans, booleans["invariance_ok"])


def _probe_direction(shape: tuple[int, int], rng_seed) -> np.ndarray:
    return _unit_w(np.random.default_rng(rng_seed), 1, *shape)[0]


def _trial_correction(side: str, cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    """Gamma against every dual of the left frame, or Theta, the Gamma of the adjoint, of the right frame.

    The decomposition reads its certified bound ||R0|| + ||K||, which holds for
    every dual; the probe's breakage reads max(||R0||, ||K||), which some dual reaches.
    """
    _, mult = _invertible_instance(cfg, trial, *_pair_keys(cfg, trial, d, n), zero_entry=False)
    tol = cfg.tol
    on = mult if side == "gamma" else adjoint(mult)
    rep = gamma_of(on, tol)
    direction = _shared(_probe_direction, rep.op.shape, (cfg.seed, trial, 7))
    probe = rep.op + direction * (1e3 * tol.rel_eq)
    max_dec = sum(_certificate(on, rep.op, tol))
    breakage = max(_certificate(on, probe, tol))
    inv_norm = _inverse_norm(mult, tol)
    booleans = {
        "decomposition_ok": _rel_gap(max_dec, inv_norm) <= tol.rel_eq,
        "annihilation_ok": _rel_gap(rep.annihilation_residual, inv_norm) <= tol.rel_eq,
        "masked_annihilation_ok": _rel_gap(rep.masked_annihilation_residual, inv_norm) <= tol.rel_eq,
        "uniqueness_ok": breakage >= 1e2 * tol.rel_eq,
    }
    ok = booleans["decomposition_ok"] and booleans["annihilation_ok"] and booleans["uniqueness_ok"]
    residuals = _residuals(
        side, rep._op_norm, rep.annihilation_residual, rep.masked_annihilation_residual, max_dec, breakage
    )
    return _Measured(mult.left.count, residuals, booleans, ok)


def _trial_equivalence(cfg: ExperimentConfig, trial: int, d: int, n: int) -> _Measured:
    phi_key, psi_key = _pair_keys(cfg, trial, d, n)
    phi, _ = _frame(phi_key), _frame(psi_key)  # a failed right frame fails this trial too
    tol = cfg.tol
    positive = trial % 2 == 0
    if positive:
        m = _semi_symbol(cfg, trial, phi.count)
        v = riesz_basis(d, (cfg.seed, trial, 6), tol=tol)
        psi = _weighted_image(v.synth, phi, m, tol)
        mult = build(m, phi, psi, tol)
    else:
        psi_key = _frame_key("random", d, phi.count, (cfg.seed, trial, 1), tol)
        m, mult = _invertible_instance(cfg, trial, phi_key, psi_key, zero_entry=False)
    verdict3, max_formula = _equivalence(mult, tol)
    inv_norm = _inverse_norm(mult, tol)
    gamma_norm = gamma_of(mult, tol)._op_norm

    agree = verdict3.equivalent == verdict3.gamma_zero == verdict3.all_duals_formula
    indeterminate = any(_near_boundary(_rel_gap(r, inv_norm), tol) for r in (gamma_norm, max_formula))
    booleans = {
        "equivalent": verdict3.equivalent,
        "gamma_zero": verdict3.gamma_zero,
        "all_duals_formula": verdict3.all_duals_formula,
        "agree": agree,
        "expected_positive": positive,
    }
    residuals = _residuals("equivalence", gamma_norm, max_formula)
    return _Measured(phi.count, residuals, booleans, agree, indeterminate)


# ---------------------------------------------------------------- suite table

# The suites in run order: each one's trial body and its residual keys in
# record order, every residual key written here once. A key marked _ZERO
# enters max_residual: a quantity a passing construction drives toward zero.
# A _DIAG key is a diagnostic, such as achieved_mu, and stays out.
_ZERO, _DIAG = True, False
_COMPANION = {
    "achieved_mu": _DIAG,
    "bound_coefficient": _DIAG,
    "companion_deviation": _DIAG,
    "multiplier_residual": _ZERO,
}
_CORRECTION = {
    "op_norm": _DIAG,
    "annihilation": _ZERO,
    "masked_annihilation": _ZERO,
    "max_decomposition": _ZERO,
    "probe_breakage": _DIAG,
}
_SUITES = {
    "thm1": (_trial_thm1, dict.fromkeys(("direct", "cond_i", "cond_ii", "cond_iii", "cond_iv"), _ZERO)),
    "per1": (partial(_trial_per1_side, "per1"), _COMPANION),
    "per1dual": (partial(_trial_per1_side, "per1dual"), _COMPANION),
    "per2": (_trial_per2, {**_COMPANION, "floor_ratio": _DIAG}),
    "per3": (_trial_per3, _COMPANION),
    "gamma": (partial(_trial_correction, "gamma"), _CORRECTION),
    "theta": (partial(_trial_correction, "theta"), _CORRECTION),
    "equivalence": (_trial_equivalence, {"gamma_norm": _DIAG, "max_formula_residual": _ZERO}),
}

SUITE_NAMES = tuple(_SUITES)
_TRIAL_BODIES = {name: body for name, (body, _) in _SUITES.items()}
_AGG_KEYS = frozenset(key for _, keys in _SUITES.values() for key, zero in keys.items() if zero)
# The CSV's residual columns: every suite's keys, in order of first appearance.
RESIDUAL_COLUMNS = list(dict.fromkeys(key for _, keys in _SUITES.values() for key in keys))


# ------------------------------------------------------------------- records


class _Row(Mapping):
    """A read-only mapping: a key tuple shared with other rows, and the values as the body gave them.

    items() and values() iterate the stored tuples directly. A row equals any
    mapping with the same items, a dict included.
    """

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: tuple[str, ...], values: tuple):
        self._keys = keys
        self._values = values

    def __getitem__(self, key):
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def items(self):
        return zip(self._keys, self._values)

    def values(self):
        return iter(self._values)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _keys(rows: dict, fields: dict) -> tuple[str, ...]:
    """The run's copy of the key tuple of fields."""
    keys = tuple(fields)
    return rows.setdefault(keys, keys)


def _row(rows: dict, fields: dict) -> _Row:
    """fields as a _Row from the run's intern table: equal rows are one object.

    Rows count as equal only when their values have the same types too, so
    True, 1 and np.bool_(True) never share a row.
    """
    keys = _keys(rows, fields)
    values = tuple(fields.values())
    # A list, not map(): tuple() of an iterator with no length hint over-allocates and
    # shrinks, moving a block between CPython's per-size tuple free lists every trial.
    key = (keys, values, tuple([type(v) for v in values]))
    if key not in rows:
        rows[key] = _Row(keys, values)
    return rows[key]


def _check_types(name: str, wanted: str, admits, types) -> None:
    """Raise InvalidArgument naming the first of types that admits rejects."""
    for cls in types:
        if not admits(cls):
            got = f"{cls.__module__}.{cls.__qualname__}"
            raise InvalidArgument(f"every {name} must be {wanted}, got {got}")


def _check_real(types) -> None:
    """Raise InvalidArgument naming the first of types that is not numbers.Real: a residual must be real."""
    _check_types("residual value", "real", lambda cls: issubclass(cls, numbers.Real), types)


class _Shared:
    """What a run's trials have in common, each stored once: its intern table and the entries trials point at.

    rows is the intern table of _keys and _row. entries holds each distinct N
    and each distinct (residual key tuple, booleans row) pair once, and a
    trial keeps the index of its own.
    """

    __slots__ = ("rows", "entries", "_index")

    def __init__(self) -> None:
        self.rows: dict = {}
        self.entries: list = []
        self._index: dict = {}

    def index(self, key, entry) -> int:
        """The index of entry in entries, stored under key the first time key is seen."""
        i = self._index.setdefault(key, len(self.entries))
        if i == len(self.entries):
            self.entries.append(entry)
        return i


def _append_index(column: array, i: int) -> array:
    """column with i appended; a byte column becomes a 4-byte one when i does not fit a byte."""
    if i > 0xFF and column.typecode == "B":
        column = array("I", column)
    column.append(i)
    return column


_VERDICTS = ("pass", "fail", "indeterminate")  # a verdict's code is its index here


class _Columns:
    """One suite's trial results, one fixed-width column per field, for as long as its report lives.

    Every residual value goes into one float64 array, and the offset of each
    trial's first value into a 4-byte offset column. Each trial adds one byte
    each for its N, its (residual keys, booleans row) pair and its verdict:
    the first two index the run's _Shared entries (four bytes each once a
    run has more than 256 entries) and the verdict is its code in _VERDICTS,
    from which indeterminate follows. A trial that caught an error keeps its
    note in notes, by trial; every other note is empty. So a finished trial
    costs 7 bytes plus 8 per residual.
    """

    __slots__ = ("values", "start", "n", "pair", "verdict", "notes")

    def __init__(self) -> None:
        self.values, self.start = array("d"), array("I")
        self.n, self.pair, self.verdict = array("B"), array("B"), array("B")
        self.notes: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.verdict)

    def append(self, got: _Measured, note: str, shared: _Shared) -> None:
        """Add one trial; a residual that is not a real number is an InvalidArgument, as in save_report."""
        residuals = got.residuals.values()
        _check_real({type(v) for v in residuals})
        if note:
            self.notes[len(self)] = note
        self.start.append(len(self.values))
        self.values.extend(residuals)
        # N as the body gave it, type and all: validate_config bounds no N, so no typecode holds every N.
        self.n = _append_index(self.n, shared.index((got.n, type(got.n)), got.n))
        keys, booleans = _keys(shared.rows, got.residuals), _row(shared.rows, got.booleans)
        # A row lives as long as the run's intern table, so its id names it there.
        self.pair = _append_index(self.pair, shared.index((keys, id(booleans)), (keys, booleans)))
        self.verdict.append(_VERDICTS.index(_verdict(got.ok, got.indeterminate)))

    def record(self, name: str, cfg: ExperimentConfig, entries: list, trial: int) -> TrialRecord:
        """The TrialRecord of one trial, built afresh; each residual comes back as a Python float."""
        keys, booleans = entries[self.pair[trial]]
        start = self.start[trial]
        residuals = _Row(keys, tuple(self.values[start : start + len(keys)]))
        d = cfg.dims[trial % len(cfg.dims)][0]
        verdict = _VERDICTS[self.verdict[trial]]
        return TrialRecord(
            name, trial, cfg.seed, d, entries[self.n[trial]], residuals, booleans,
            verdict == "indeterminate", verdict, self.notes.get(trial, ""),
        )


class _Records(Sequence):
    """A run's TrialRecords, suite by suite in run order, each built from its suite's columns when read.

    A read-only sequence: len, iteration, integer indexing (negative too),
    slices as tuples, and == against any sequence of records. Each read
    builds a new record, equal to the one the last read gave. tally() counts
    the verdicts from the columns without building a record.
    """

    __slots__ = ("_cfg", "_suites", "_entries")

    def __init__(self, cfg: ExperimentConfig, columns: dict[str, _Columns], entries: list) -> None:
        self._cfg = cfg
        self._suites = tuple(columns.items())
        self._entries = entries

    def __len__(self) -> int:
        return sum(len(column) for _, column in self._suites)

    def __iter__(self):
        for name, column in self._suites:
            for trial in range(len(column)):
                yield column.record(name, self._cfg, self._entries, trial)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple([self[i] for i in range(len(self))[index]])
        i = range(len(self))[index]  # IndexError out of range; a negative index counts from the end
        for name, column in self._suites:
            if i < len(column):
                return column.record(name, self._cfg, self._entries, i)
            i -= len(column)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def tally(self) -> dict[str, dict[str, int]]:
        """Each suite's count of each verdict, suites in run order and verdicts in _VERDICTS order."""
        return {
            name: {verdict: column.verdict.count(code) for code, verdict in enumerate(_VERDICTS)}
            for name, column in self._suites
        }


# Errors that fail the one trial raising them: the package's own, plus the
# numerical ones numpy raises (LinAlgError is a ValueError) and a MemoryError
# from an N too large to allocate.
_TRIAL_ERRORS = (FrameMultError, ValueError, ArithmeticError, MemoryError)


def _run_one(name: str, cfg: ExperimentConfig, trial: int, shared: _Shared, column: _Columns) -> None:
    """Add one suite's result on one trial to its columns: what its body measured, or the error it raised.

    shared holds what the run's trials have in common: every key tuple comes
    from its intern table, and equal booleans rows are one object.
    """
    d, n = cfg.dims[trial % len(cfg.dims)]
    note = ""
    try:
        got = _TRIAL_BODIES[name](cfg, trial, d, n)
    except _TRIAL_ERRORS as exc:
        got, note = _Measured(n, {}, {}, ok=False), f"{type(exc).__name__}: {exc}"
    column.append(got, note, shared)


def run_suite(cfg: ExperimentConfig) -> SuiteReport:
    """Run the configured suite (or all of them) and aggregate the records.

    Trials run one at a time, each through every suite, so the suites of a
    trial share its fixtures. Each suite keeps its results in columns; the
    report's records are a view over them, and its tally and max_residual
    are read from them, so no record exists until a reader reaches it.
    """
    cfg = validate_config(cfg)
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    start = time.perf_counter()
    columns = {name: _Columns() for name in names}
    shared = _Shared()
    memo: dict = {}
    token = _MEMO.set(memo)
    try:
        for trial in range(cfg.trials):
            memo.clear()
            for name in names:
                _run_one(name, cfg, trial, shared, columns[name])
    finally:
        memo.clear()
        _MEMO.reset(token)
    records = _Records(cfg, columns, shared.entries)
    tally = records.tally().values()
    totals = {verdict: sum(counts[verdict] for counts in tally) for verdict in _VERDICTS}
    max_residual = _max_residual(columns.values(), shared.entries)
    wall = time.perf_counter() - start
    return SuiteReport(
        suite=cfg.suite,
        config=cfg,
        records=records,
        passed=totals["pass"],
        failed=totals["fail"],
        indeterminate=totals["indeterminate"],
        max_residual=max_residual,
        wall_time_s=wall,
    )


def _max_residual(columns, entries: list) -> float:
    """The largest residual under a max_residual key, 0.0 when there is none; a NaN one gives NaN."""
    aggregated = [
        np.frombuffer(column.values)[
            np.fromiter(
                (key in _AGG_KEYS for i in column.pair for key in entries[i][0]), bool, len(column.values)
            )
        ]
        for column in columns
    ]
    return float(np.max(np.concatenate(aggregated), initial=0.0))
