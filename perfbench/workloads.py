"""The benchmark's workloads: CLI passes, their outputs and the verdict model.

A pass is the list of `framemult.cli.main` calls that makes up one workload
run. Its outputs are read back into one `Outcome` per trial, which is checked
against the claims model below and, for pinned seeds, against the stored
reference (see reference.py).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

TRIALS = 100
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Acceptance 10's scrub: the wall time is the only non-deterministic field.
_WALL_TIME = re.compile(rb'"wall_time_s": [0-9.e+-]+')


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]  # suites in pass order
    generator: str
    fmt: str
    combined: bool  # one `--suite all` call, or one call per suite
    why: str

    def calls(self, seed: int, outdir: Path, trials: int = TRIALS) -> list[tuple[list[str], Path]]:
        """(argv, report path) for each CLI call of one pass."""
        common = ["--trials", str(trials), "--seed", str(seed), "--generator", self.generator]
        common += ["--format", self.fmt]
        if self.combined:
            out = outdir / f"{self.name}.{self.fmt}"
            return [(["--suite", "all", *common, "--out", str(out)], out)]
        return [
            (["--suite", suite, *common, "--out", str(outdir / f"{suite}.{self.fmt}")],
             outdir / f"{suite}.{self.fmt}")
            for suite in self.suites
        ]

    def first_trial_argv(self, seed: int) -> list[str]:
        """The CLI call that runs only the workload's first trial."""
        return ["--suite", self.suites[0], "--trials", "1", "--seed", str(seed),
                "--generator", self.generator]

    def trials(self, trials: int = TRIALS) -> int:
        return len(self.suites) * trials


ALL_SUITES = ("thm1", "per1", "per1dual", "per2", "per3", "gamma", "theta", "equivalence")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-cli", ALL_SUITES, "random", "json", combined=True,
            why="--suite all --trials 100 to JSON, the end-to-end run of ROADMAP.md; dual "
            "sampling (sample_duals, random_dual, op_norm) dominates, so batched or cached "
            "duals show here",
        ),
        Workload(
            "companion-csv", ALL_SUITES[:5], "random", "csv", combined=False,
            why="thm1 and the four companion suites, one CSV call each; never samples duals, "
            "so a dual-layer change predicts no change here while linalg or new_frame changes show",
        ),
        Workload(
            "riesz-all", ALL_SUITES, "riesz", "json", combined=True,
            why="all suites on square Riesz bases: duals collapse to the canonical one, per2 and "
            "odd per3 trials end in caught errors, frames are redrawn more; guards the retry and "
            "failure paths",
        ),
    )
}


def import_framemult():
    """Import `framemult.cli` from this checkout's src/, never from elsewhere.

    Raises ImportError when the checkout holds no framemult sources.
    """
    if not (SRC / "framemult" / "__init__.py").is_file():
        raise ImportError(f"no framemult sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from framemult import cli

    if Path(cli.__file__).resolve().parent != SRC / "framemult":
        raise ImportError(f"framemult imported from {cli.__file__}, not from {SRC}")
    return cli


def run_pass(cli, workload: Workload, seed: int, outdir: Path, trials: int = TRIALS) -> list[int]:
    """One pass through `cli.main`; returns the exit codes. Summaries are discarded."""
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv, _ in workload.calls(seed, outdir, trials):
            codes.append(cli.main(argv))
    return codes


# ------------------------------------------------------------------ outputs


@dataclass(frozen=True)
class Outcome:
    suite: str
    trial: int
    verdict: str
    error: str  # exception class of a caught error ("?" when the format omits it), else ""
    residuals: dict[str, float]
    booleans: dict[str, bool] | None  # None when the format omits them

    @property
    def key(self) -> tuple[str, int]:
        return self.suite, self.trial


@dataclass(frozen=True)
class PassOutput:
    outcomes: list[Outcome]
    digest: str  # sha256 of the report bytes with the wall time scrubbed
    codes_ok: bool  # every exit code says what the verdicts say


def _from_json(data: bytes) -> list[Outcome]:
    outcomes = []
    for rec in json.loads(data)["records"]:
        note = rec["note"]
        outcomes.append(
            Outcome(rec["suite"], rec["trial"], rec["verdict"],
                    note.split(":", 1)[0] if note else "", rec["residuals"], rec["booleans"])
        )
    return outcomes


def _from_csv(data: bytes) -> list[Outcome]:
    outcomes = []
    for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        residuals = {
            key: float(value)
            for key, value in row.items()
            if key not in ("suite", "trial", "seed", "d", "N", "verdict") and value != ""
        }
        # A caught error leaves every residual column empty.
        outcomes.append(
            Outcome(row["suite"], int(row["trial"]), row["verdict"],
                    "" if residuals else "?", residuals, None)
        )
    return outcomes


def read_pass(workload: Workload, seed: int, outdir: Path, codes: list[int],
              trials: int = TRIALS) -> PassOutput:
    """Read back what one pass wrote."""
    digest = hashlib.sha256()
    outcomes: list[Outcome] = []
    codes_ok = True
    for (_, path), code in zip(workload.calls(seed, outdir, trials), codes):
        data = path.read_bytes()
        digest.update(_WALL_TIME.sub(b"", data))
        parsed = _from_json(data) if workload.fmt == "json" else _from_csv(data)
        failed = any(o.verdict == "fail" for o in parsed)
        codes_ok = codes_ok and code == (1 if failed else 0)
        outcomes += parsed
    return PassOutput(outcomes, digest.hexdigest(), codes_ok)


# --------------------------------------------------------------- claims model

_BY_DESIGN_GAMMA_THETA = {
    "decomposition_ok": True,
    "annihilation_ok": False,
    "masked_annihilation_ok": True,
    "uniqueness_ok": True,
}


def _holds(o: Outcome, verdicts: tuple[str, ...], error: bool = False) -> bool:
    return o.verdict in verdicts and bool(o.error) == error


def model_allows(generator: str, o: Outcome) -> bool:
    """Whether a trial outcome is one the mathematics (or a documented defect) allows.

    Random frames are redundant: gamma and theta fail by design on bare
    annihilation only (README "Expected failures"), and per2 may end in the
    caught B_Phi spectral-floor violation (a known defect, see ROADMAP.md).
    Riesz bases are square: a symbol with a zero entry can never give an
    invertible multiplier, so per2 and the zero-entry (odd) per3 trials end in
    a caught "no invertible multiplier" error; everything else passes.
    """
    suite = o.suite
    if suite in ("thm1", "equivalence"):
        return _holds(o, ("pass", "indeterminate"))
    if generator == "riesz":
        if suite == "per2" or (suite == "per3" and o.trial % 2 == 1):
            return _holds(o, ("fail",), error=True) and o.error in ("FrameMultError", "?")
        return _holds(o, ("pass",))
    if suite == "per2":
        return _holds(o, ("pass",)) or (
            _holds(o, ("fail",), error=True) and o.error in ("HypothesisViolated", "?")
        )
    if suite in ("gamma", "theta"):
        return _holds(o, ("fail",)) and (
            o.booleans is None
            or all(o.booleans[k] == v for k, v in _BY_DESIGN_GAMMA_THETA.items())
        )
    return _holds(o, ("pass",))
