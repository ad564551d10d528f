"""Pinned reference outcomes for the default seed and one holdout seed.

Each file under reference/ holds, for one workload and seed, every trial's
(suite, trial, verdict, caught-error class, residuals) and the sha256 of the
report bytes with the wall time scrubbed.

Regenerate after a change that is meant to move verdicts or residuals:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import gzip
import json
import tempfile
from pathlib import Path

from workloads import ROOT, TRIALS, WORKLOADS, PassOutput, import_framemult, read_pass, run_pass

DEFAULT_SEED = 0
HOLDOUT_SEED = 1608
PINNED_SEEDS = (DEFAULT_SEED, HOLDOUT_SEED)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json.gz"


def load(workload: str, seed: int) -> dict | None:
    """The pinned reference, or None when the seed is not pinned."""
    if seed not in PINNED_SEEDS:
        return None
    with gzip.open(_path(workload, seed), "rt", encoding="utf-8") as handle:
        return json.load(handle)


def compare(reference: dict, output: PassOutput) -> tuple[set, float, bool]:
    """(keys of trials whose outcome drifted, largest residual change, digest match).

    A residual change is |x - r| / max(1, |x|, |r|), the package's own
    equality policy; residual keys present on one side only are skipped.
    """
    found = {o.key: o for o in output.outcomes}
    drifted = set()
    residual_drift = 0.0
    for suite, trial, verdict, error, residuals in reference["records"]:
        o = found.get((suite, trial))
        if o is None or (o.verdict, o.error) != (verdict, error):
            drifted.add((suite, trial))
            continue
        for key, ref in residuals.items():
            if key in o.residuals:
                new = o.residuals[key]
                residual_drift = max(
                    residual_drift, abs(new - ref) / max(1.0, abs(new), abs(ref))
                )
    drifted |= found.keys() - {(r[0], r[1]) for r in reference["records"]}
    return drifted, residual_drift, output.digest == reference["digest"]


def write_all(cli) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in PINNED_SEEDS:
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
                codes = run_pass(cli, workload, seed, Path(tmp))
                output = read_pass(workload, seed, Path(tmp), codes)
            document = {
                "workload": name,
                "seed": seed,
                "trials_per_suite": TRIALS,
                "digest": output.digest,
                "records": [
                    [o.suite, o.trial, o.verdict, o.error, o.residuals] for o in output.outcomes
                ],
            }
            with gzip.GzipFile(_path(name, seed), "wb", mtime=0) as handle:
                handle.write(json.dumps(document, sort_keys=True).encode("utf-8"))
            print(f"wrote {_path(name, seed).name}: {len(output.outcomes)} trials")


if __name__ == "__main__":
    write_all(import_framemult())
