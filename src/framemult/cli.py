"""Command-line harness: run verification suites and write reports.

Exit status: 0 when no trial failed (indeterminate trials never fail a run),
1 when at least one trial failed, 2 for configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigInvalid, FrameMultError
from .linalg import Tol
from .serialize import save_report
from .suites import (
    DEFAULT_DIMS,
    GENERATOR_NAMES,
    SUITE_NAMES,
    ExperimentConfig,
    SuiteReport,
    run_suite,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framemult",
        description=(
            "Run seeded verification suites for frame multipliers on C^d: "
            "inversion-report consistency (thm1), perturbation companions "
            "(per1, per1dual, per2, per3), inverse-representation corrections "
            "(gamma, theta), and the equivalence criterion (equivalence)."
        ),
    )
    parser.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument(
        "--dims",
        action="append",
        metavar="DxN",
        help=(
            "dimension pair as 'dxN', repeatable; default grid "
            + " ".join(f"{d}x{n}" for d, n in DEFAULT_DIMS)
        ),
    )
    parser.add_argument("--trials", type=int, default=100, help="trials per suite (default: 100)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default: 0)")
    parser.add_argument(
        "--tol-rel",
        type=float,
        default=1e-8,
        dest="tol_rel",
        help="relative equality threshold (default: 1e-8)",
    )
    parser.add_argument(
        "--generator",
        choices=GENERATOR_NAMES,
        default="random",
        help="fixture family (default: random)",
    )
    parser.add_argument("--out", default=None, help="write the full report to this path")
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format for --out (default: json)",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process (each parser is a reference cycle)."""
    return build_parser()


def _parse_dims(raw: list[str] | None) -> tuple[tuple[int, int], ...]:
    if not raw:
        return DEFAULT_DIMS
    dims = []
    for item in raw:
        parts = item.lower().split("x")
        if len(parts) != 2:
            raise ConfigInvalid(f"malformed --dims value {item!r}; expected 'dxN'")
        try:
            d, n = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigInvalid(f"malformed --dims value {item!r}; expected integers") from exc
        dims.append((d, n))
    return tuple(dims)


def _summarize(report: SuiteReport) -> str:
    lines = []
    suites = sorted({record.suite for record in report.records}, key=SUITE_NAMES.index)
    for name in suites:
        records = [r for r in report.records if r.suite == name]
        passed = sum(1 for r in records if r.verdict == "pass")
        failed = sum(1 for r in records if r.verdict == "fail")
        indet = sum(1 for r in records if r.verdict == "indeterminate")
        lines.append(
            f"suite={name} trials={len(records)} pass={passed} fail={failed} "
            f"indeterminate={indet}"
        )
    lines.append(
        f"total: pass={report.passed} fail={report.failed} "
        f"indeterminate={report.indeterminate} max_residual={report.max_residual:.3e} "
        f"wall_time={report.wall_time_s:.2f}s"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            tol = Tol(rel_eq=args.tol_rel)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        cfg = ExperimentConfig(
            suite=args.suite,
            dims=_parse_dims(args.dims),
            trials=args.trials,
            seed=args.seed,
            tol=tol,
            generator=args.generator,
            format=args.format,
        )
        report = run_suite(cfg)
        print(_summarize(report))
        if args.out is not None:
            save_report(report, args.out, args.format)
            print(f"report written to {args.out} ({args.format})")
    except FrameMultError as exc:  # ConfigInvalid, IoError and every other package error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
